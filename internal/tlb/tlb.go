// Package tlb models the per-core data TLB: a small fully-associative,
// LRU-replaced translation cache. Translation is identity (virtual ==
// physical); the TLB is purely a timing and state structure — but its state
// (which entries live in it, LRU order) is one of the side channels
// InvisiSpec closes, so Probe (stateless) and Touch/Insert (state-changing)
// are separate operations. Under InvisiSpec, a speculative load's miss walk
// and replacement update are deferred until the load's visibility point
// (paper §VI-E3).
package tlb

import (
	"invisispec/internal/cache"
	"invisispec/internal/isa"
)

// TLB is one core's data TLB.
type TLB struct {
	arr         *cache.Array
	walkLatency int

	Hits   uint64
	Misses uint64
}

// New builds a TLB with the given number of entries and page-walk latency in
// cycles. Entries need not be a power of two (fully associative, one set),
// but must be in [1, cache.MaxWays]: cache.NewArray panics otherwise.
func New(entries, walkLatency int) *TLB {
	return &TLB{arr: cache.NewArray(1, entries), walkLatency: walkLatency}
}

// PageOf returns the page number of a byte address.
func PageOf(addr uint64) uint64 { return addr / isa.PageSize }

// Probe reports whether the page holding addr is mapped, without updating
// any replacement state. This is what a USL's translation does under
// InvisiSpec: observe but do not perturb.
func (t *TLB) Probe(addr uint64) bool {
	return t.arr.Lookup(PageOf(addr)) != nil
}

// Access performs a normal (visible) translation: on a hit the entry is
// promoted to MRU and the extra latency is 0; on a miss the page is walked
// and installed, and the walk latency is returned.
func (t *TLB) Access(addr uint64) (extraLatency int) {
	p := PageOf(addr)
	if t.arr.Lookup(p) != nil {
		t.Hits++
		t.arr.Touch(p)
		return 0
	}
	t.Misses++
	t.arr.Insert(p)
	return t.walkLatency
}

// Touch applies the deferred replacement update for a hit that was made
// invisible at translation time (the USL reached its visibility point).
func (t *TLB) Touch(addr uint64) { t.arr.Touch(PageOf(addr)) }

// Insert applies a deferred page walk's fill.
func (t *TLB) Insert(addr uint64) { t.arr.Insert(PageOf(addr)) }

// WalkLatency returns the configured page-walk latency in cycles.
func (t *TLB) WalkLatency() int { return t.walkLatency }

// MRUOrder exposes the LRU stack (page numbers, MRU first) so tests can
// assert that invisible probes leave no trace.
func (t *TLB) MRUOrder() []uint64 { return t.arr.LRUOrder(0) }
