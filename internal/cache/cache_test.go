package cache

import (
	"math/rand"
	"slices"
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

// quickLRU is a reference model: per-set slice ordered MRU-first, holding
// only valid lines.
type quickLRU struct {
	sets, ways int
	order      [][]uint64
}

func newQuickLRU(sets, ways int) *quickLRU {
	return &quickLRU{sets: sets, ways: ways, order: make([][]uint64, sets)}
}

func (m *quickLRU) setOf(ln uint64) int { return int(ln) & (m.sets - 1) }

func (m *quickLRU) has(ln uint64) bool {
	for _, v := range m.order[m.setOf(ln)] {
		if v == ln {
			return true
		}
	}
	return false
}

// remove drops ln from its set and reports whether it was there.
func (m *quickLRU) remove(ln uint64) bool {
	s := m.setOf(ln)
	for i, v := range m.order[s] {
		if v == ln {
			m.order[s] = append(m.order[s][:i:i], m.order[s][i+1:]...)
			return true
		}
	}
	return false
}

// insert makes ln its set's MRU line and returns the line it evicted, if
// any.
func (m *quickLRU) insert(ln uint64) (evicted uint64, had bool) {
	s := m.setOf(ln)
	if !m.remove(ln) && len(m.order[s]) == m.ways {
		evicted, had = m.order[s][m.ways-1], true
		m.order[s] = m.order[s][:m.ways-1]
	}
	m.order[s] = append([]uint64{ln}, m.order[s]...)
	return evicted, had
}

func (m *quickLRU) touch(ln uint64) {
	if m.remove(ln) {
		s := m.setOf(ln)
		m.order[s] = append([]uint64{ln}, m.order[s]...)
	}
}

// TestArrayMatchesReferenceLRU drives the machine's array geometries with
// random inserts, touches and invalidations and compares every set it
// touches with the reference model. A *Line the array handed out must stay
// what Lookup returns while the line is resident, across the slabs later
// installs claim, and a set never installed into must read empty.
func TestArrayMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct {
		name       string
		sets, ways int
		minClaimed int // sets the run must claim: 257 spans three slabs
	}{
		{"llc-bank", 2048, 16, 2*minSlabSets + 1},
		{"l1d", 128, 8, 1},
		{"tlb", 1, 64, 1},
		{"tiny", 4, 4, 1},
	} {
		t.Run(g.name, func(t *testing.T) {
			a := NewArray(g.sets, g.ways)
			ref := newQuickLRU(g.sets, g.ways)
			held := map[uint64]*Line{}
			seen := make([]bool, g.sets)
			// Each op picks a kind (six in eight insert), a tag from more
			// than a set holds, and a set: half the ops go to eight hot
			// sets, so sets fill and evict, the rest anywhere.
			f := func(ops []uint32) bool {
				var touched []int
				for _, x := range ops {
					s := int(x>>8) & (g.sets - 1)
					if x>>31 == 0 {
						s &= 7 & (g.sets - 1)
					}
					ln := uint64(s) + uint64(g.sets)*uint64((x>>3)%uint32(g.ways+g.ways/2+1))
					touched, seen[s] = append(touched, s), true
					switch x % 8 {
					case 6:
						a.Touch(ln)
						ref.touch(ln)
					case 7:
						if got, want := a.Invalidate(ln), ref.remove(ln); got != want {
							t.Errorf("Invalidate(%d) = %v, want %v", ln, got, want)
							return false
						}
					default:
						resident := ref.has(ln)
						line, ev, had := a.Insert(ln)
						wantEv, wantHad := ref.insert(ln)
						if had != wantHad || had && ev.LineNum != wantEv {
							t.Errorf("Insert(%d) evicted %d (%v), want %d (%v)", ln, ev.LineNum, had, wantEv, wantHad)
							return false
						}
						if resident && line != held[ln] {
							t.Errorf("Insert(%d) of a resident line moved it", ln)
							return false
						}
						held[ln] = line
					}
				}
				for _, s := range touched {
					if !slices.Equal(a.LRUOrder(s), ref.order[s]) {
						t.Errorf("set %d: LRUOrder = %v, want %v", s, a.LRUOrder(s), ref.order[s])
						return false
					}
					for _, ln := range ref.order[s] {
						if a.Lookup(ln) != held[ln] {
							t.Errorf("Lookup(%d) is not the *Line Insert returned", ln)
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
			if a.claimed < g.minClaimed {
				t.Fatalf("run claimed %d sets, want at least %d", a.claimed, g.minClaimed)
			}
			want := 0
			for s := 0; s < g.sets; s++ {
				want += len(ref.order[s])
				if seen[s] {
					continue
				}
				if a.index[s] != 0 || len(a.LRUOrder(s)) != 0 || a.Lookup(uint64(s)) != nil {
					t.Fatalf("set %d was never installed into but holds lines", s)
				}
			}
			if a.Count() != want {
				t.Fatalf("Count = %d, want %d", a.Count(), want)
			}
		})
	}
}

func TestNewArrayPanics(t *testing.T) {
	for _, tc := range []struct{ sets, ways int }{{3, 2}, {0, 2}, {4, 0}, {2 * maxSets, 2}} {
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

// TestLineStaysPacked guards Line's field order: every set a run touches
// holds its ways' lines, replacement ranks included, so a field that breaks
// the packing grows each touched set by a third.
func TestLineStaysPacked(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Fatalf("cache.Line is %d bytes, want 24", got)
	}
}
