// Package cache provides the set-associative tag/state arrays used by every
// cache level of the simulated hierarchy; the miss machinery around them
// lives in internal/memsys. The arrays are
// timing/state-only: architectural values live in the machine's functional
// memory image (see internal/isa.Memory and DESIGN.md §1).
//
// Lookup and Touch are deliberately separate operations: InvisiSpec's
// Spec-GetS transactions must be able to probe a cache without perturbing
// replacement (LRU) state, since replacement information is itself a side
// channel the paper closes.
//
// A set holds no lines until its first install, so a run pays for the sets
// it touches, not for the array's capacity.
package cache

import "fmt"

// Line is one cache line's tag and coherence metadata. State is owned by the
// coherence protocol (package coherence defines the MESI encoding). Fields
// are ordered by size so a line, its replacement rank included, packs into
// 24 bytes: a bank whose run touches every set holds 32,768 of them.
type Line struct {
	LineNum uint64 // address >> log2(lineSize)
	// Sharers is used only by directory entries embedded in LLC lines: a
	// bitmap of cores holding the line.
	Sharers uint64
	// Owner is the core that holds the line in E/M, or -1. Sharers caps
	// the core count at 64, so 16 bits hold any core.
	Owner int16
	Valid bool
	Dirty bool
	State uint8
	// Prefetched marks an L1 line installed by the hardware prefetcher and
	// not yet demand-touched (the trigger tag of a tagged next-line
	// prefetcher).
	Prefetched bool
	lru        uint8 // rank in its set: 0 = MRU, ways-1 = LRU
}

// Array is a set-associative cache with true-LRU replacement. A set gets
// its ways on its first install, carved from slabs that never move, so a
// *Line stays valid for the array's lifetime. A set never installed into
// holds no lines.
type Array struct {
	ways int
	// index holds 4 bytes per set: 0 until the set's first install, then
	// the set's slab plus one in the low slabBits bits and its position in
	// that slab above them.
	index   []uint32
	slabs   [][]Line
	used    int // sets of the last slab given out so far
	claimed int // sets given their ways so far
}

// minSlabSets is the smallest slab, in sets. A slab holds as many sets as
// were claimed before it, at least minSlabSets and at most the sets left,
// so a 2048-set bank whose run touches every set allocates five slabs; the
// 128-set L1s and the one-set TLB fill one.
const minSlabSets = 128

// slabBits is the width of an index entry's slab field, and maxSets the
// most sets an array may have, so that any position fits above it.
const (
	slabBits = 8
	maxSets  = 1 << (32 - slabBits)
)

// NewArray builds an array with the given geometry. Sets must be a power of
// two.
func NewArray(sets, ways int) *Array {
	if sets <= 0 || sets&(sets-1) != 0 || sets > maxSets {
		panic(fmt.Sprintf("cache: sets %d must be a power of two in [1, %d]", sets, maxSets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: ways %d must be positive", ways))
	}
	return &Array{ways: ways, index: make([]uint32, sets)}
}

func (a *Array) setOf(lineNum uint64) int { return int(lineNum) & (len(a.index) - 1) }

// set returns the ways of set s, or nil if it was never installed into.
func (a *Array) set(s int) []Line {
	r := a.index[s]
	if r == 0 {
		return nil
	}
	slab := a.slabs[r&(1<<slabBits-1)-1]
	i := int(r>>slabBits) * a.ways
	return slab[i : i+a.ways : i+a.ways]
}

// claim gives set s its ways, ranked by way index as at reset.
func (a *Array) claim(s int) []Line {
	n := len(a.slabs)
	if n == 0 || a.used*a.ways == len(a.slabs[n-1]) {
		a.slabs = append(a.slabs, make([]Line, min(max(a.claimed, minSlabSets), len(a.index)-a.claimed)*a.ways))
		a.used = 0
		n++
	}
	a.index[s] = uint32(a.used)<<slabBits | uint32(n)
	a.used++
	a.claimed++
	set := a.set(s)
	for w := range set {
		set[w].lru = uint8(w)
	}
	return set
}

// find returns the way of set holding lineNum, or -1.
func find(set []Line, lineNum uint64) int {
	for w := range set {
		if set[w].Valid && set[w].LineNum == lineNum {
			return w
		}
	}
	return -1
}

// Lookup returns the line holding lineNum, or nil. It does NOT update
// replacement state (see package comment).
func (a *Array) Lookup(lineNum uint64) *Line {
	set := a.set(a.setOf(lineNum))
	if w := find(set, lineNum); w >= 0 {
		return &set[w]
	}
	return nil
}

// Touch promotes lineNum to MRU. It is a no-op if the line is absent.
func (a *Array) Touch(lineNum uint64) {
	set := a.set(a.setOf(lineNum))
	if w := find(set, lineNum); w >= 0 {
		promote(set, w)
	}
}

func promote(set []Line, way int) {
	old := set[way].lru
	for w := range set {
		if set[w].lru < old {
			set[w].lru++
		}
	}
	set[way].lru = 0
}

// victim returns the way Insert replaces: an invalid way if one exists,
// otherwise the LRU way.
func victim(set []Line) int {
	for w := range set {
		if !set[w].Valid {
			return w
		}
	}
	for w := range set {
		if int(set[w].lru) == len(set)-1 {
			return w
		}
	}
	panic("cache: no victim found") // unreachable: LRU orders are a permutation
}

// Insert places lineNum into its set, returning the new line and, if a valid
// line was displaced, a copy of the evicted line. The new line is promoted
// to MRU and starts Valid with zeroed metadata.
func (a *Array) Insert(lineNum uint64) (inserted *Line, evicted Line, hadEviction bool) {
	s := a.setOf(lineNum)
	set := a.set(s)
	if set == nil {
		set = a.claim(s)
	}
	if w := find(set, lineNum); w >= 0 {
		promote(set, w)
		return &set[w], Line{}, false
	}
	w := victim(set)
	v := &set[w]
	if v.Valid {
		evicted = *v
		hadEviction = true
	}
	*v = Line{LineNum: lineNum, Valid: true, Owner: -1, lru: v.lru}
	promote(set, w)
	return v, evicted, hadEviction
}

// Invalidate drops lineNum from the array and demotes the slot to LRU so it
// is the next victim. It reports whether the line was present.
func (a *Array) Invalidate(lineNum uint64) bool {
	set := a.set(a.setOf(lineNum))
	w := find(set, lineNum)
	if w < 0 {
		return false
	}
	old := set[w].lru
	set[w] = Line{}
	for i := range set {
		if set[i].lru > old {
			set[i].lru--
		}
	}
	set[w].lru = uint8(len(set) - 1)
	return true
}

// ForEach calls fn on every valid line, in set order. fn must not insert or
// invalidate.
func (a *Array) ForEach(fn func(*Line)) {
	for s := range a.index {
		set := a.set(s)
		for w := range set {
			if set[w].Valid {
				fn(&set[w])
			}
		}
	}
}

// Count returns the number of valid lines (for tests and occupancy checks).
func (a *Array) Count() int {
	n := 0
	a.ForEach(func(*Line) { n++ })
	return n
}

// LRUOrder returns the line numbers of the given set from MRU to LRU,
// including only valid ways. It exposes replacement state so tests can
// assert that Spec-GetS never perturbs it.
func (a *Array) LRUOrder(set int) []uint64 {
	lines := a.set(set)
	out := make([]uint64, 0, a.ways)
	for rank := range lines {
		for w := range lines {
			if int(lines[w].lru) == rank && lines[w].Valid {
				out = append(out, lines[w].LineNum)
			}
		}
	}
	return out
}

// SetOf exposes the set index mapping (for tests constructing conflicts).
func (a *Array) SetOf(lineNum uint64) int { return a.setOf(lineNum) }
