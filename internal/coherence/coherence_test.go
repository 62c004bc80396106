package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func entry(present bool, owner int, sharers ...int) DirEntry {
	e := DirEntry{Present: present, Owner: owner}
	for _, s := range sharers {
		e.Sharers |= 1 << uint(s)
	}
	return e
}

func TestGetSMiss(t *testing.T) {
	d, e := Decide(entry(false, NoOwner), GetS, 2)
	if !d.FromMemory || !d.InstallLLC || d.Grant != Exclusive {
		t.Fatalf("miss GetS decision: %+v", d)
	}
	if !e.Present || e.Owner != 2 || e.Sharers != 0 {
		t.Fatalf("miss GetS entry: %+v", e)
	}
}

func TestGetSFromOwner(t *testing.T) {
	d, e := Decide(entry(true, 1), GetS, 2)
	if !d.FromOwner || d.Owner != 1 || !d.OwnerWriteback || d.Grant != Shared {
		t.Fatalf("owned GetS decision: %+v", d)
	}
	if e.Owner != NoOwner || !e.HasSharer(1) || !e.HasSharer(2) {
		t.Fatalf("owned GetS entry: %+v", e)
	}
}

func TestGetSSharedAddsSharer(t *testing.T) {
	d, e := Decide(entry(true, NoOwner, 0), GetS, 3)
	if d.Grant != Shared || d.FromOwner || d.FromMemory {
		t.Fatalf("shared GetS decision: %+v", d)
	}
	if !e.HasSharer(0) || !e.HasSharer(3) {
		t.Fatalf("shared GetS entry: %+v", e)
	}
}

func TestGetSExclusiveGrantWhenNoCopies(t *testing.T) {
	d, e := Decide(entry(true, NoOwner), GetS, 4)
	if d.Grant != Exclusive {
		t.Fatalf("lone GetS grant = %v, want E", d.Grant)
	}
	if e.Owner != 4 {
		t.Fatalf("lone GetS entry: %+v", e)
	}
}

func TestGetSOwnRequest(t *testing.T) {
	d, e := Decide(entry(true, 5), GetS, 5)
	if d.FromOwner || d.Grant != Exclusive || e.Owner != 5 {
		t.Fatalf("self GetS: %+v / %+v", d, e)
	}
}

func TestGetXInvalidatesEveryone(t *testing.T) {
	d, e := Decide(entry(true, NoOwner, 0, 1, 3), GetX, 1)
	if d.Grant != Modified {
		t.Fatalf("GetX grant = %v", d.Grant)
	}
	// Cores 0 and 3 invalidated; requester 1 never is.
	if d.Invalidate != 1<<0|1<<3 {
		t.Fatalf("GetX invalidations: %#b", d.Invalidate)
	}
	if e.Owner != 1 || e.Sharers != 0 {
		t.Fatalf("GetX entry: %+v", e)
	}
}

func TestGetXFromOwner(t *testing.T) {
	d, e := Decide(entry(true, 2), GetX, 0)
	if !d.FromOwner || d.Owner != 2 || d.Grant != Modified {
		t.Fatalf("owned GetX decision: %+v", d)
	}
	if d.Invalidate != 1<<2 {
		t.Fatalf("owned GetX invalidations: %#b", d.Invalidate)
	}
	if e.Owner != 0 {
		t.Fatalf("owned GetX entry: %+v", e)
	}
}

func TestGetXMiss(t *testing.T) {
	d, e := Decide(entry(false, NoOwner), GetX, 7)
	if !d.FromMemory || !d.InstallLLC || d.Grant != Modified || e.Owner != 7 {
		t.Fatalf("miss GetX: %+v / %+v", d, e)
	}
}

func TestPutS(t *testing.T) {
	_, e := Decide(entry(true, NoOwner, 1, 2), PutS, 1)
	if e.HasSharer(1) || !e.HasSharer(2) {
		t.Fatalf("PutS entry: %+v", e)
	}
}

func TestPutMAndStalePutM(t *testing.T) {
	_, e := Decide(entry(true, 3), PutM, 3)
	if e.Owner != NoOwner {
		t.Fatalf("PutM entry: %+v", e)
	}
	// Stale PutM: owner already changed — must be a no-op.
	before := entry(true, 5, 1)
	_, e = Decide(before, PutM, 3)
	if e != before {
		t.Fatalf("stale PutM mutated entry: %+v", e)
	}
}

func TestSpecGetSNeverMutates(t *testing.T) {
	entries := []DirEntry{
		entry(false, NoOwner),
		entry(true, NoOwner),
		entry(true, NoOwner, 0, 2),
		entry(true, 3),
		entry(true, 1, 0),
	}
	for _, before := range entries {
		d, after := Decide(before, SpecGetS, 2)
		if after != before {
			t.Fatalf("Spec-GetS mutated %+v -> %+v", before, after)
		}
		if d.InstallLLC {
			t.Fatalf("Spec-GetS wants LLC install on %+v", before)
		}
		if d.Grant != Invalid {
			t.Fatalf("Spec-GetS granted state %v", d.Grant)
		}
	}
}

func TestSpecGetSDataSource(t *testing.T) {
	if d, _ := Decide(entry(false, NoOwner), SpecGetS, 0); !d.FromMemory {
		t.Fatal("absent line must come from memory")
	}
	if d, _ := Decide(entry(true, 4), SpecGetS, 0); !d.FromOwner || d.Owner != 4 {
		t.Fatal("owned line must be forwarded from owner")
	}
	if d, _ := Decide(entry(true, NoOwner, 1), SpecGetS, 0); d.FromOwner || d.FromMemory {
		t.Fatal("LLC copy should serve shared line")
	}
	// A core spec-reading a line it owns gets it locally-ish (from LLC path).
	if d, _ := Decide(entry(true, 2), SpecGetS, 2); d.FromOwner {
		t.Fatal("self-owned Spec-GetS must not forward to self")
	}
}

func TestRecall(t *testing.T) {
	sharers, owner, dirty := Recall(entry(true, NoOwner, 1, 4))
	if sharers != 1<<1|1<<4 || owner != NoOwner || dirty {
		t.Fatalf("shared recall: sharers %#b owner %d dirty=%v", sharers, owner, dirty)
	}
	sharers, owner, dirty = Recall(entry(true, 6))
	if sharers != 0 || owner != 6 || !dirty {
		t.Fatalf("owned recall: sharers %#b owner %d dirty=%v", sharers, owner, dirty)
	}
}

// Invariant: after any legal transaction, owner and sharers are mutually
// exclusive and the requester of a Get* holds the granted state.
func TestDecideInvariantsQuick(t *testing.T) {
	f := func(present bool, ownerSel uint8, sharerBits uint8, kindSel uint8, reqSel uint8) bool {
		const cores = 8
		owner := NoOwner
		if present && ownerSel%3 == 0 {
			owner = int(ownerSel) % cores
		}
		e := DirEntry{Present: present, Owner: owner}
		if owner == NoOwner && present {
			e.Sharers = uint64(sharerBits)
		}
		kind := []ReqKind{GetS, GetX, PutS, PutM, SpecGetS}[kindSel%5]
		req := int(reqSel) % cores
		d, after := Decide(e, kind, req)
		// Owner and sharers never overlap.
		if after.Owner != NoOwner && after.HasSharer(after.Owner) {
			return false
		}
		// Spec-GetS never mutates.
		if kind == SpecGetS && after != e {
			return false
		}
		// Get* leaves the requester with the granted state recorded.
		if kind == GetS || kind == GetX {
			if !after.Present {
				return false
			}
			switch d.Grant {
			case Shared:
				if !after.HasSharer(req) {
					return false
				}
			case Exclusive, Modified:
				if after.Owner != req {
					return false
				}
			default:
				return false
			}
		}
		// Invalidations never include the requester.
		return d.Invalidate&(1<<uint(req)) == 0
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	for _, s := range []State{Invalid, Shared, Exclusive, Modified, State(9)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
	for _, k := range []ReqKind{GetS, GetX, PutS, PutM, SpecGetS, ReqKind(99)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}
