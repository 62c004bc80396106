package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
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

// fullArray is the array as it was before a set held only the ways it had
// filled: every set holds all its ways, ranked by way index until first
// used; an install fills the first invalid way, or else replaces the LRU
// way. Its sets are allocated on first use, which changes nothing.
type fullArray struct {
	ways  int
	sets  [][]Line
	valid int // valid lines
}

func (r *fullArray) set(ln uint64) []Line {
	s := int(ln) & (len(r.sets) - 1)
	if r.sets[s] == nil {
		r.sets[s] = make([]Line, r.ways)
		for w := range r.sets[s] {
			r.sets[s][w].lru = uint8(w)
		}
	}
	return r.sets[s]
}

func (r *fullArray) way(ln uint64) int {
	return slices.IndexFunc(r.set(ln), func(l Line) bool { return l.Valid && l.LineNum == ln })
}

func (r *fullArray) promote(set []Line, w int) {
	for i := range set {
		if set[i].lru < set[w].lru {
			set[i].lru++
		}
	}
	set[w].lru = 0
}

func (r *fullArray) insert(ln uint64) (evicted Line, had bool) {
	set, w := r.set(ln), r.way(ln)
	if w < 0 {
		if w = slices.IndexFunc(set, func(l Line) bool { return !l.Valid }); w >= 0 {
			r.valid++
		} else {
			w = slices.IndexFunc(set, func(l Line) bool { return int(l.lru) == r.ways-1 })
			evicted, had = set[w], true
		}
		set[w] = Line{LineNum: ln, Valid: true, Owner: -1, lru: set[w].lru}
	}
	r.promote(set, w)
	return evicted, had
}

func (r *fullArray) touch(ln uint64) {
	if w := r.way(ln); w >= 0 {
		r.promote(r.set(ln), w)
	}
}

func (r *fullArray) invalidate(ln uint64) {
	set, w := r.set(ln), r.way(ln)
	if w < 0 {
		return
	}
	for i := range set {
		if set[i].lru > set[w].lru {
			set[i].lru--
		}
	}
	set[w] = Line{lru: uint8(r.ways - 1)}
	r.valid--
}

// mismatch walks a's lines with ForEach and describes the first that is
// not r's line in the same set and way, rank included, that ForEach visits
// out of (set, way) order, or that is not the *Line held for it; or else
// reports whether a and r hold different numbers of lines.
func (r *fullArray) mismatch(a *Array, held map[uint64]*Line) string {
	n, last, msg := 0, -1, ""
	a.ForEach(func(l *Line) {
		s := a.setOf(l.LineNum)
		w := find(a.set(s), l.LineNum)
		switch {
		case msg != "":
		case s*r.ways+w <= last || r.sets[s] == nil || r.sets[s][w] != *l:
			msg = fmt.Sprintf("set %d way %d holds %+v, in the fully allocated array %+v", s, w, *l, r.set(l.LineNum)[w])
		case held[l.LineNum] != l:
			msg = fmt.Sprintf("line %d moved though no Insert grew its set", l.LineNum)
		}
		n, last = n+1, s*r.ways+w
	})
	if msg == "" && n != r.valid {
		msg = fmt.Sprintf("ForEach visits %d lines, the fully allocated array holds %d", n, r.valid)
	}
	return msg
}

// TestArrayMatchesReferenceLRU drives the machine's array geometries with
// random inserts, touches and invalidations. After every op, the touched
// set's LRU order must match the reference model's, each resident line
// must sit in the way the fully allocated array puts it, in the same
// ForEach order, an install must evict the line that array evicts, and a
// *Line must stay what Lookup returns until an Insert grows its set. A set
// holds the fewest ways, a power of two or the associativity, that hold
// the most lines it has held, and the array's store at most 8 times the
// lines its sets have held, plus its first slab: power-of-two growth hands
// out fewer than 4 lines per line held, and a new slab is no larger than
// the lines handed out before it, the first aside. A set never installed
// into must read empty.
func TestArrayMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct {
		name       string
		sets, ways int
		minSlabs   int // slabs the run must fill
	}{
		{"llc-bank", 2048, 16, 3},
		{"l1d", 128, 8, 1},
		{"tlb", 1, 64, 1},
		{"tiny", 4, 4, 1},
	} {
		t.Run(g.name, func(t *testing.T) {
			a := NewArray(g.sets, g.ways)
			ref := newQuickLRU(g.sets, g.ways)
			full := &fullArray{ways: g.ways, sets: make([][]Line, g.sets)}
			held := map[uint64]*Line{}
			filled := make([]int, g.sets) // the most lines each set has held
			sumFilled := 0
			seen := make([]bool, g.sets)
			// Each op picks a kind (six in eight insert), a tag from more
			// than a set holds, and a set: half the ops go to eight hot
			// sets, so sets fill and evict, the rest anywhere.
			f := func(ops []uint32) bool {
				for _, x := range ops {
					s := int(x>>8) & (g.sets - 1)
					if x>>31 == 0 {
						s &= 7 & (g.sets - 1)
					}
					ln := uint64(s) + uint64(g.sets)*uint64((x>>3)%uint32(g.ways+g.ways/2+1))
					seen[s] = true
					switch x % 8 {
					case 6:
						a.Touch(ln)
						ref.touch(ln)
						full.touch(ln)
					case 7:
						if got, want := a.Invalidate(ln), ref.remove(ln); got != want {
							t.Errorf("Invalidate(%d) = %v, want %v", ln, got, want)
							return false
						}
						full.invalidate(ln)
					default:
						ways := len(a.set(s))
						line, ev, had := a.Insert(ln)
						refEv, refHad := ref.insert(ln)
						wantEv, wantHad := full.insert(ln)
						if had != wantHad || ev != wantEv || had != refHad || had && ev.LineNum != refEv {
							t.Errorf("Insert(%d) evicted %+v (%v), want %+v (%v)", ln, ev, had, wantEv, wantHad)
							return false
						}
						if set := a.set(s); len(set) != ways {
							for w := range set[:ways] { // the set grew: its lines moved
								held[set[w].LineNum] = &set[w]
							}
						}
						held[ln] = line
						if n := len(ref.order[s]); n > filled[s] {
							sumFilled += n - filled[s]
							filled[s] = n
						}
						if got, want := len(a.set(s)), min(1<<bits.Len(uint(filled[s]-1)), g.ways); got != want {
							t.Errorf("set %d holds %d ways after holding %d lines, want %d", s, got, filled[s], want)
							return false
						}
					}
					if !slices.Equal(a.LRUOrder(s), ref.order[s]) {
						t.Errorf("set %d: LRUOrder = %v, want %v", s, a.LRUOrder(s), ref.order[s])
						return false
					}
					if msg := full.mismatch(a, held); msg != "" {
						t.Errorf("after op %#x on line %d: %s", x, ln, msg)
						return false
					}
					lines := 0
					for _, slab := range a.store.slabs {
						lines += len(slab)
					}
					if lines > 0 && lines > 8*sumFilled+len(a.store.slabs[0]) {
						t.Errorf("store holds %d lines, more than 8 x %d held plus a first slab of %d", lines, sumFilled, len(a.store.slabs[0]))
						return false
					}
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
			if len(a.store.slabs) < g.minSlabs {
				t.Fatalf("run filled %d slabs, want at least %d", len(a.store.slabs), g.minSlabs)
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
	for _, tc := range []struct {
		sets, ways int
		want       string // what the panic must name
	}{{3, 2, "power of two"}, {0, 2, "power of two"}, {4, 0, "[1, 256]"}, {1, MaxWays + 1, "[1, 256]"}} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("NewArray(%d,%d) did not panic", tc.sets, tc.ways)
				} else if !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("NewArray(%d,%d) panicked %q, which does not name %q", tc.sets, tc.ways, r, tc.want)
				}
			}()
			NewArray(tc.sets, tc.ways)
		}()
	}
}

// TestMaxWaysSetEvictsLRU fills a set of the most ways an array may have,
// whose LRU rank is the largest a byte holds, and evicts its LRU line.
func TestMaxWaysSetEvictsLRU(t *testing.T) {
	a := NewArray(1, MaxWays)
	for ln := uint64(0); ln < MaxWays; ln++ {
		if _, _, had := a.Insert(ln); had {
			t.Fatalf("Insert(%d) evicted from a set with free ways", ln)
		}
	}
	a.Touch(0)
	if _, ev, had := a.Insert(MaxWays); !had || ev.LineNum != 1 {
		t.Fatalf("evicted %+v (had=%v), want line 1", ev, had)
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
