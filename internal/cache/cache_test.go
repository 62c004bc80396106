package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInsertLookup(t *testing.T) {
	a := NewArray(4, 2)
	a.Insert(0x10)
	if l := a.Lookup(0x10); l == nil || l.LineNum != 0x10 {
		t.Fatal("inserted line not found")
	}
	if a.Lookup(0x11) != nil {
		t.Fatal("phantom hit")
	}
}

func TestLRUEviction(t *testing.T) {
	a := NewArray(1, 2) // one set, two ways
	a.Insert(0)
	a.Insert(1)
	a.Touch(0) // 0 becomes MRU; 1 is now LRU
	_, ev, had := a.Insert(2)
	if !had || ev.LineNum != 1 {
		t.Fatalf("evicted %+v (had=%v), want line 1", ev, had)
	}
	if a.Lookup(0) == nil || a.Lookup(2) == nil || a.Lookup(1) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestLookupDoesNotTouchLRU(t *testing.T) {
	// This property is what lets Spec-GetS probe without leaving a trace.
	a := NewArray(1, 2)
	a.Insert(0) // order: 0
	a.Insert(1) // order: 1,0 → LRU is 0
	a.Lookup(0) // must NOT promote 0
	_, ev, had := a.Insert(2)
	if !had || ev.LineNum != 0 {
		t.Fatalf("evicted %+v, want line 0 — Lookup perturbed LRU", ev)
	}
}

func TestInsertExistingPromotes(t *testing.T) {
	a := NewArray(1, 2)
	a.Insert(0)
	a.Insert(1)
	_, _, had := a.Insert(0) // re-insert = touch
	if had {
		t.Fatal("re-insert must not evict")
	}
	_, ev, _ := a.Insert(2)
	if ev.LineNum != 1 {
		t.Fatalf("evicted %d, want 1", ev.LineNum)
	}
}

func TestInvalidateDemotes(t *testing.T) {
	a := NewArray(1, 2)
	a.Insert(0)
	a.Insert(1)
	if !a.Invalidate(1) {
		t.Fatal("Invalidate missed present line")
	}
	if a.Invalidate(1) {
		t.Fatal("Invalidate hit absent line")
	}
	// The freed way must be reused without evicting line 0.
	_, _, had := a.Insert(2)
	if had {
		t.Fatal("insert after invalidate evicted a live line")
	}
	if a.Lookup(0) == nil {
		t.Fatal("line 0 lost")
	}
}

func TestSetMapping(t *testing.T) {
	a := NewArray(8, 2)
	// Lines 8 sets apart collide.
	a.Insert(3)
	a.Insert(3 + 8)
	a.Insert(3 + 16) // evicts 3
	if a.Lookup(3) != nil {
		t.Fatal("line 3 should have been evicted by set conflict")
	}
	if a.Lookup(3+8) == nil || a.Lookup(3+16) == nil {
		t.Fatal("conflict set contents wrong")
	}
	// A line in a different set is unaffected.
	a.Insert(4)
	if a.Lookup(4) == nil {
		t.Fatal("line in different set missing")
	}
}

func TestLRUOrder(t *testing.T) {
	a := NewArray(1, 4)
	for _, ln := range []uint64{0, 1, 2, 3} {
		a.Insert(ln)
	}
	a.Touch(1)
	got := a.LRUOrder(0)
	want := []uint64{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LRUOrder = %v, want %v", got, want)
		}
	}
}

func TestCountAndForEach(t *testing.T) {
	a := NewArray(4, 2)
	for i := uint64(0); i < 5; i++ {
		a.Insert(i)
	}
	if a.Count() != 5 {
		t.Fatalf("Count = %d, want 5", a.Count())
	}
	sum := uint64(0)
	a.ForEach(func(l *Line) { sum += l.LineNum })
	if sum != 0+1+2+3+4 {
		t.Fatalf("ForEach sum = %d", sum)
	}
}

// quickLRU is a reference model: per-set slice ordered MRU-first.
type quickLRU struct {
	sets, ways int
	order      [][]uint64
}

func newQuickLRU(sets, ways int) *quickLRU {
	return &quickLRU{sets: sets, ways: ways, order: make([][]uint64, sets)}
}

func (m *quickLRU) access(ln uint64) {
	s := int(ln) & (m.sets - 1)
	set := m.order[s]
	for i, v := range set {
		if v == ln {
			copy(set[1:i+1], set[:i])
			set[0] = ln
			return
		}
	}
	if len(set) == m.ways {
		set = set[:m.ways-1]
	}
	m.order[s] = append([]uint64{ln}, set...)
}

func (m *quickLRU) contents(s int) []uint64 { return m.order[s] }

func TestArrayMatchesReferenceLRU(t *testing.T) {
	const sets, ways = 4, 4
	a := NewArray(sets, ways)
	ref := newQuickLRU(sets, ways)
	f := func(accesses []uint16) bool {
		for _, x := range accesses {
			ln := uint64(x % 64)
			a.Insert(ln)
			ref.access(ln)
		}
		for s := 0; s < sets; s++ {
			got := a.LRUOrder(s)
			want := ref.contents(s)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNewArrayPanics(t *testing.T) {
	for _, tc := range []struct{ sets, ways int }{{3, 2}, {0, 2}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArray(%d,%d) did not panic", tc.sets, tc.ways)
				}
			}()
			NewArray(tc.sets, tc.ways)
		}()
	}
}

// TestLineStaysPacked guards Line's field order: every LLC bank holds tens
// of thousands of lines, so a field that breaks the packing grows a built
// machine's heap by a third.
func TestLineStaysPacked(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Fatalf("cache.Line is %d bytes, want 24", got)
	}
}
