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
package cache

import "fmt"

// Line is one cache line's tag and coherence metadata. State is owned by the
// coherence protocol (package coherence defines the MESI encoding). Fields
// are ordered by size so a line packs into 24 bytes: each LLC bank holds
// tens of thousands of them, most of a built machine's heap.
type Line struct {
	LineNum uint64 // address >> log2(lineSize)
	// Sharers is used only by directory entries embedded in LLC lines: a
	// bitmap of cores holding the line.
	Sharers uint64
	// Owner is the core that holds the line in E/M, or -1.
	Owner int32
	Valid bool
	Dirty bool
	State uint8
	// Prefetched marks an L1 line installed by the hardware prefetcher and
	// not yet demand-touched (the trigger tag of a tagged next-line
	// prefetcher).
	Prefetched bool
}

// Array is a set-associative cache with true-LRU replacement.
type Array struct {
	sets  int
	ways  int
	lines []Line  // sets*ways, row-major by set
	lru   []uint8 // per line: 0 = MRU, ways-1 = LRU
}

// NewArray builds an array with the given geometry. Sets must be a power of
// two.
func NewArray(sets, ways int) *Array {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d must be a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: ways %d must be positive", ways))
	}
	a := &Array{
		sets:  sets,
		ways:  ways,
		lines: make([]Line, sets*ways),
		lru:   make([]uint8, sets*ways),
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			a.lru[s*ways+w] = uint8(w)
		}
	}
	return a
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

func (a *Array) setOf(lineNum uint64) int { return int(lineNum) & (a.sets - 1) }

// Lookup returns the line holding lineNum, or nil. It does NOT update
// replacement state (see package comment).
func (a *Array) Lookup(lineNum uint64) *Line {
	s := a.setOf(lineNum)
	base := s * a.ways
	for w := 0; w < a.ways; w++ {
		l := &a.lines[base+w]
		if l.Valid && l.LineNum == lineNum {
			return l
		}
	}
	return nil
}

// Touch promotes lineNum to MRU. It is a no-op if the line is absent.
func (a *Array) Touch(lineNum uint64) {
	s := a.setOf(lineNum)
	base := s * a.ways
	for w := 0; w < a.ways; w++ {
		if a.lines[base+w].Valid && a.lines[base+w].LineNum == lineNum {
			a.promote(s, w)
			return
		}
	}
}

func (a *Array) promote(set, way int) {
	base := set * a.ways
	old := a.lru[base+way]
	for w := 0; w < a.ways; w++ {
		if a.lru[base+w] < old {
			a.lru[base+w]++
		}
	}
	a.lru[base+way] = 0
}

// Victim returns a pointer to the line that Insert would replace for
// lineNum: an invalid way if one exists, otherwise the LRU way. The caller
// can inspect it (e.g. to issue a writeback) before inserting.
func (a *Array) Victim(lineNum uint64) *Line {
	s := a.setOf(lineNum)
	base := s * a.ways
	// Prefer an invalid way.
	for w := 0; w < a.ways; w++ {
		if !a.lines[base+w].Valid {
			return &a.lines[base+w]
		}
	}
	// Otherwise the LRU way.
	for w := 0; w < a.ways; w++ {
		if int(a.lru[base+w]) == a.ways-1 {
			return &a.lines[base+w]
		}
	}
	panic("cache: no victim found") // unreachable: LRU orders are a permutation
}

// Insert places lineNum into its set, returning the new line and, if a valid
// line was displaced, a copy of the evicted line. The new line is promoted
// to MRU and starts Valid with zeroed metadata.
func (a *Array) Insert(lineNum uint64) (inserted *Line, evicted Line, hadEviction bool) {
	if l := a.Lookup(lineNum); l != nil {
		a.Touch(lineNum)
		return l, Line{}, false
	}
	v := a.Victim(lineNum)
	if v.Valid {
		evicted = *v
		hadEviction = true
	}
	*v = Line{LineNum: lineNum, Valid: true, Owner: -1}
	// Find the way index to promote.
	s := a.setOf(lineNum)
	base := s * a.ways
	for w := 0; w < a.ways; w++ {
		if &a.lines[base+w] == v {
			a.promote(s, w)
			break
		}
	}
	return v, evicted, hadEviction
}

// Invalidate drops lineNum from the array and demotes the slot to LRU so it
// is the next victim. It reports whether the line was present.
func (a *Array) Invalidate(lineNum uint64) bool {
	s := a.setOf(lineNum)
	base := s * a.ways
	for w := 0; w < a.ways; w++ {
		l := &a.lines[base+w]
		if l.Valid && l.LineNum == lineNum {
			*l = Line{}
			a.demote(s, w)
			return true
		}
	}
	return false
}

func (a *Array) demote(set, way int) {
	base := set * a.ways
	old := a.lru[base+way]
	for w := 0; w < a.ways; w++ {
		if a.lru[base+w] > old {
			a.lru[base+w]--
		}
	}
	a.lru[base+way] = uint8(a.ways - 1)
}

// ForEach calls fn on every valid line. fn must not insert or invalidate.
func (a *Array) ForEach(fn func(*Line)) {
	for i := range a.lines {
		if a.lines[i].Valid {
			fn(&a.lines[i])
		}
	}
}

// Count returns the number of valid lines (for tests and occupancy checks).
func (a *Array) Count() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid {
			n++
		}
	}
	return n
}

// LRUOrder returns the line numbers of the given set from MRU to LRU,
// including only valid ways. It exposes replacement state so tests can
// assert that Spec-GetS never perturbs it.
func (a *Array) LRUOrder(set int) []uint64 {
	out := make([]uint64, 0, a.ways)
	for rank := 0; rank < a.ways; rank++ {
		base := set * a.ways
		for w := 0; w < a.ways; w++ {
			if int(a.lru[base+w]) == rank && a.lines[base+w].Valid {
				out = append(out, a.lines[base+w].LineNum)
			}
		}
	}
	return out
}

// SetOf exposes the set index mapping (for tests constructing conflicts).
func (a *Array) SetOf(lineNum uint64) int { return a.setOf(lineNum) }
