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
// A set holds no lines until its first install and then only as many ways
// as it has filled, rounded up to a power of two or the associativity, so
// a run pays for the lines it touches, not for the array's capacity. A
// *Line is valid until an Insert grows its set (see Array).
package cache

import (
	"fmt"
	"math/bits"
)

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

// Array is a set-associative cache with true-LRU replacement. A set holds
// only a prefix of its ways, sized to what it has filled: one way from its
// first install, doubled (up to the associativity) by each install of an
// absent line into a full set. An install takes the lowest-index invalid
// way, and the ways a set grows rank below its old ones in way order, so
// every line keeps the way index and LRU rank a set holding all its ways
// would give it. A set never installed into holds no lines.
//
// A *Line stays what Lookup returns until an Insert grows its set, which
// copies the set into a new chunk of its store.
type Array struct {
	ways int
	// index holds 4 bytes per set: 0 until the set's first install, then
	// its slab plus one in the low slabBits bits, the log2 of its capacity
	// in the next capBits, and its chunk's offset in the slab above them.
	index []uint32
	store *Store
}

// Store holds the lines of the arrays built from it, carved into chunks
// from slabs that never move. A new slab holds as many lines as the store
// handed out before it, at least minSlab or, for a smaller array, twice
// the array's capacity.
type Store struct {
	slabs  [][]Line
	used   int // lines of the last slab handed out so far
	handed int // lines handed out so far
}

// MaxWays is the most ways an array may have: a line's LRU rank is a byte.
const MaxWays = 256

// minSlab is the smallest slab, in lines, an array of at least half that
// capacity adds.
const minSlab = 1024

// The index entry's fields: slabBits hold the slab plus one and capBits
// the log2 of the set's capacity, so a slab holds at most maxSlab lines.
const (
	slabBits = 6
	capBits  = 4
	maxSlab  = 1 << (32 - slabBits - capBits)
)

// NewArray builds an array with the given geometry and a store of its own.
// Sets must be a power of two.
func NewArray(sets, ways int) *Array { return new(Store).NewArray(sets, ways) }

// NewArray builds an array with the given geometry whose sets take their
// ways from s. Sets must be a power of two.
func (s *Store) NewArray(sets, ways int) *Array {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d must be a positive power of two", sets))
	}
	if ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("cache: ways %d must be in [1, %d]", ways, MaxWays))
	}
	return &Array{ways: ways, index: make([]uint32, sets), store: s}
}

func (a *Array) setOf(lineNum uint64) int { return int(lineNum) & (len(a.index) - 1) }

// set returns the ways set s holds, or nil if it was never installed into.
func (a *Array) set(s int) []Line {
	r := a.index[s]
	if r == 0 {
		return nil
	}
	slab := a.store.slabs[r&(1<<slabBits-1)-1]
	i, n := int(r>>(slabBits+capBits)), min(1<<(r>>slabBits&(1<<capBits-1)), a.ways)
	return slab[i : i+n : i+n]
}

// grow copies set s, whose ways are all valid, into a chunk of twice its
// ways (one at its first install), at most the associativity. The new ways
// are invalid and rank below the old ones in way order.
func (a *Array) grow(s int, set []Line) []Line {
	k := uint32(bits.Len(uint(len(set)))) // a set short of its ways holds a power of two
	n := min(1<<k, a.ways)
	slab, off := a.store.carve(n, min(minSlab, 2*len(a.index)*a.ways))
	a.index[s] = uint32(off)<<(slabBits+capBits) | k<<slabBits | uint32(slab+1)
	chunk := a.store.slabs[slab][off : off+n : off+n]
	copy(chunk, set)
	for w := len(set); w < n; w++ {
		chunk[w].lru = uint8(w)
	}
	return chunk
}

// carve hands out n lines of the last slab, first adding a slab of as many
// lines as were handed out before, at least floor, if they do not fit.
func (st *Store) carve(n, floor int) (slab, off int) {
	slab = len(st.slabs) - 1
	if slab < 0 || st.used+n > len(st.slabs[slab]) {
		if slab++; slab == 1<<slabBits-1 {
			panic("cache: a store holds at most 63 slabs")
		}
		st.slabs = append(st.slabs, make([]Line, min(max(st.handed, floor), maxSlab)))
		st.used = 0
	}
	off = st.used
	st.used += n
	st.handed += n
	return slab, off
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
// otherwise the LRU way, or -1 if the set's ways are all valid but fewer
// than the associativity.
func victim(set []Line, ways int) int {
	for w := range set {
		if !set[w].Valid {
			return w
		}
	}
	for w := range set {
		if int(set[w].lru) == ways-1 {
			return w
		}
	}
	return -1
}

// Insert places lineNum into its set, returning the new line and, if a valid
// line was displaced, a copy of the evicted line. The new line is promoted
// to MRU and starts Valid with zeroed metadata. An absent line that finds
// its set's ways all valid and fewer than the associativity grows the set,
// which moves its lines (see Array).
func (a *Array) Insert(lineNum uint64) (inserted *Line, evicted Line, hadEviction bool) {
	s := a.setOf(lineNum)
	set := a.set(s)
	if w := find(set, lineNum); w >= 0 {
		promote(set, w)
		return &set[w], Line{}, false
	}
	w := victim(set, a.ways)
	if w < 0 {
		w, set = len(set), a.grow(s, set)
	}
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
	out := make([]uint64, 0, len(lines))
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
