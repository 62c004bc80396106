package memsys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"invisispec/internal/coherence"
	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/stats"
)

// testClient records everything the hierarchy reports to a core.
type testClient struct {
	delivered     []Response
	invalidations []uint64
	evictions     []uint64
}

func (c *testClient) Deliver(now uint64, r Response) { c.delivered = append(c.delivered, r) }
func (c *testClient) OnInvalidate(now uint64, line uint64) {
	c.invalidations = append(c.invalidations, line)
}
func (c *testClient) OnL1Evict(now uint64, line uint64) { c.evictions = append(c.evictions, line) }

func (c *testClient) gotToken(tok uint64) bool {
	for _, r := range c.delivered {
		if r.Token == tok {
			return true
		}
	}
	return false
}

func (c *testClient) resp(tok uint64) *Response {
	for i := range c.delivered {
		if c.delivered[i].Token == tok {
			return &c.delivered[i]
		}
	}
	return nil
}

// countClient counts what the hierarchy reports to a core without
// allocating.
type countClient struct{ delivered, bounced, invalidated, evicted int }

func (c *countClient) Deliver(_ uint64, r Response) {
	c.delivered++
	if r.Bounced {
		c.bounced++
	}
}
func (c *countClient) OnInvalidate(uint64, uint64) { c.invalidated++ }
func (c *countClient) OnL1Evict(uint64, uint64)    { c.evicted++ }

type rig struct {
	h       *Hierarchy
	st      *stats.Machine
	clients []*testClient
	cycle   uint64
}

func newRig(t *testing.T, cores int) *rig {
	t.Helper()
	cfg := config.Default(cores)
	cfg.HWPrefetch = false // unit tests count exact transactions
	st := stats.NewMachine(cores)
	h := New(cfg, st)
	r := &rig{h: h, st: st}
	for i := 0; i < cores; i++ {
		c := &testClient{}
		r.clients = append(r.clients, c)
		h.Connect(i, c)
	}
	h.Tick(0)
	return r
}

// step advances one cycle.
func (r *rig) step() {
	r.cycle++
	r.h.Tick(r.cycle)
}

// runUntil advances until cond or the cycle budget runs out, returning the
// cycles elapsed.
func (r *rig) runUntil(t *testing.T, cond func() bool, max uint64) uint64 {
	t.Helper()
	start := r.cycle
	for !cond() {
		if r.cycle-start > max {
			t.Fatalf("condition not reached within %d cycles", max)
		}
		r.step()
	}
	return r.cycle - start
}

func TestReadMissFillsL1AndLLC(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x10000)
	if !r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1}) {
		t.Fatal("submit rejected")
	}
	lat := r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	if lat < 100 {
		t.Fatalf("cold miss served in %d cycles; DRAM latency alone is 100", lat)
	}
	if got := r.h.L1State(0, addr); got != coherence.Exclusive {
		t.Fatalf("L1 state = %v, want E", got)
	}
	if !r.h.LLCPresent(addr) {
		t.Fatal("line not installed in LLC")
	}
	if r.st.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", r.st.DRAMReads)
	}
	if r.clients[0].resp(1).L1Hit {
		t.Fatal("miss reported as L1 hit")
	}
}

func TestReadHitIsFast(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x10000)
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 2})
	lat := r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 100)
	if lat > 3 {
		t.Fatalf("L1 hit took %d cycles", lat)
	}
	if !r.clients[0].resp(2).L1Hit {
		t.Fatal("hit not flagged")
	}
}

// TestL1HitAllocatesNothing checks every L1 hit path, from Submit through
// delivery: the event carries the response by value, not in a callback.
func TestL1HitAllocatesNothing(t *testing.T) {
	const daddr, iaddr = uint64(0x10000), uint64(1) << 40
	for _, typ := range []ReqType{ReadShared, Validate, ReadExcl, SpecRead, IFetch, IFetchSpec} {
		r := newRig(t, 1)
		warm := ReadShared
		addr := daddr
		if typ == IFetch || typ == IFetchSpec {
			warm, addr = IFetch, iaddr
		}
		r.h.Submit(Request{Type: warm, Core: 0, Addr: addr, Token: 1})
		r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
		cc := &countClient{}
		r.h.Connect(0, cc)
		allocs := testing.AllocsPerRun(100, func() {
			want := cc.delivered + 1
			if !r.h.Submit(Request{Type: typ, Core: 0, Addr: addr, Token: 2}) {
				t.Fatalf("%v hit refused", typ)
			}
			for cc.delivered < want {
				r.step()
			}
		})
		if allocs != 0 {
			t.Errorf("%v L1 hit: %.1f allocations, want 0", typ, allocs)
		}
	}
}

// TestMissPathsAllocateNothing drives each transaction that leaves the L1
// and checks that, after one warm-up, it allocates nothing: events, bank
// transactions, MSHR waiter arrays and coherence decisions are plain data
// the hierarchy reuses. Each case also checks that it took the path it
// names.
func TestMissPathsAllocateNothing(t *testing.T) {
	const (
		a  = uint64(0x40000)
		ia = uint64(1)<<40 + 0x40000
	)
	l1Stride := uint64(config.Default(1).L1D.Sets()) * isa.LineBytes // same L1D set and bank
	llcStride := uint64(config.Default(1).L2.Sets()) * isa.LineBytes // same LLC set and bank
	for _, tc := range []struct {
		name  string
		run   func(r *allocRig)
		check func(r *allocRig) string
	}{
		{"read miss from DRAM", func(r *allocRig) {
			r.h.FlushLine(a)
			r.await(Request{Type: ReadShared, Core: 0, Addr: a})
		}, func(r *allocRig) string {
			return r.want("DRAM reads", int(r.st.DRAMReads), r.runs)
		}},
		{"GetX invalidating sharers", func(r *allocRig) {
			r.h.FlushLine(a)
			for c := 0; c < 3; c++ { // E, then an owner forward, then S
				r.await(Request{Type: ReadShared, Core: c, Addr: a})
			}
			r.await(Request{Type: ReadExcl, Core: 3, Addr: a})
		}, func(r *allocRig) string {
			if r.h.L1State(3, a) != coherence.Modified || r.h.L1State(2, a) != coherence.Invalid {
				return "the GetX did not leave the writer alone with the line"
			}
			return r.want("invalidations of core 2", r.cc[2].invalidated, r.runs)
		}},
		{"owner forward GetS and GetX", func(r *allocRig) {
			r.h.FlushLine(a)
			r.await(Request{Type: ReadExcl, Core: 0, Addr: a})
			r.await(Request{Type: ReadExcl, Core: 1, Addr: a})   // GetX forward to core 0
			r.await(Request{Type: ReadShared, Core: 0, Addr: a}) // GetS forward to core 1
		}, func(r *allocRig) string {
			if r.h.L1State(0, a) != coherence.Shared || r.h.L1State(1, a) != coherence.Shared {
				return "the GetS forward did not leave both cores Shared"
			}
			return r.want("DRAM reads", int(r.st.DRAMReads), r.runs)
		}},
		{"Spec-GetS miss", func(r *allocRig) {
			r.h.FlushLine(a)
			r.await(Request{Type: SpecRead, Core: 0, Addr: a})
		}, func(r *allocRig) string {
			if r.h.LLCPresent(a) {
				return "the Spec-GetS installed its line"
			}
			return r.want("DRAM reads", int(r.st.DRAMReads), r.runs)
		}},
		{"Spec-GetS owner forward", func(r *allocRig) {
			r.h.FlushLine(a)
			r.await(Request{Type: ReadExcl, Core: 1, Addr: a})
			r.await(Request{Type: SpecRead, Core: 0, Addr: a})
		}, func(r *allocRig) string {
			if r.h.L1State(1, a) != coherence.Modified || r.cc[0].bounced != 0 {
				return "the forwarded Spec-GetS bounced or disturbed the owner"
			}
			return r.want("DRAM reads", int(r.st.DRAMReads), r.runs)
		}},
		{"Spec-GetS bounce", func(r *allocRig) {
			r.h.FlushLine(a)
			c1 := r.cc[1]
			want := c1.delivered + 1
			r.h.Submit(Request{Type: ReadShared, Core: 1, Addr: a})
			for !r.h.BankBusy(r.h.LineOf(a)) {
				r.step()
			}
			r.await(Request{Type: SpecRead, Core: 0, Addr: a})
			for c1.delivered < want {
				r.step()
			}
		}, func(r *allocRig) string {
			return r.want("bounces", r.cc[0].bounced, r.runs)
		}},
		{"IFetch miss", func(r *allocRig) {
			r.h.FlushLine(ia)
			r.await(Request{Type: IFetch, Core: 0, Addr: ia})
		}, func(r *allocRig) string {
			if !r.h.L1IPresent(0, ia) {
				return "the IFetch fill did not install its line"
			}
			return r.want("DRAM reads", int(r.st.DRAMReads), r.runs)
		}},
		{"IFetchSpec miss", func(r *allocRig) {
			r.h.FlushLine(ia)
			r.await(Request{Type: IFetchSpec, Core: 0, Addr: ia})
		}, func(r *allocRig) string {
			if r.h.L1IPresent(0, ia) || r.h.LLCPresent(ia) {
				return "the IFetchSpec installed its line"
			}
			return r.want("DRAM reads", int(r.st.DRAMReads), r.runs)
		}},
		{"L1 eviction Put", func(r *allocRig) {
			// Nine lines of one L1D set, in turn: each read misses and
			// evicts the line read eight reads ago.
			r.await(Request{Type: ReadShared, Core: 0, Addr: a + uint64(r.runs%9)*l1Stride})
		}, func(r *allocRig) string {
			return r.want("L1D evictions", r.cc[0].evicted, r.runs-8)
		}},
		{"LLC recall", func(r *allocRig) {
			// Core 1 holds line x; core 0 then reads the sixteen other lines
			// of x's LLC set, the last of which evicts x from the LLC.
			r.await(Request{Type: ReadShared, Core: 1, Addr: a})
			for k := uint64(1); k <= 16; k++ {
				r.await(Request{Type: ReadShared, Core: 0, Addr: a + k*llcStride})
			}
		}, func(r *allocRig) string {
			return r.want("recalls reaching core 1", r.cc[1].invalidated, r.runs)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAllocRig(t, 4)
			run := func() { tc.run(r); r.runs++ }
			run() // warm-up
			// AllocsPerRun rounds its average down, so each run is counted
			// alone: one allocation in twenty runs fails too.
			allocs := 0.0
			for i := 0; i < 20; i++ {
				allocs += testing.AllocsPerRun(1, run)
			}
			if msg := tc.check(r); msg != "" {
				t.Fatal(msg)
			}
			if allocs != 0 {
				t.Errorf("%v allocations in 20 runs, want 0", allocs)
			}
		})
	}
}

// allocRig is a rig whose clients count without allocating.
type allocRig struct {
	*rig
	t    *testing.T
	cc   []*countClient
	runs int
}

func newAllocRig(t *testing.T, cores int) *allocRig {
	r := &allocRig{rig: newRig(t, cores), t: t}
	for i := 0; i < cores; i++ {
		r.cc = append(r.cc, &countClient{})
		r.h.Connect(i, r.cc[i])
	}
	return r
}

// await submits req, retrying until the hierarchy accepts it, and steps
// until its response has been delivered and no event is left.
func (r *allocRig) await(req Request) {
	c := r.cc[req.Core]
	want := c.delivered + 1
	for !r.h.Submit(req) {
		r.step()
	}
	for start := r.cycle; c.delivered < want || len(r.h.events) > 0; r.step() {
		if r.cycle-start > 10000 {
			r.t.Fatalf("%v from core %d not answered within 10000 cycles", req.Type, req.Core)
		}
	}
}

// want reports a count that differs from the runs' expectation.
func (r *allocRig) want(what string, got, want int) string {
	if got != want {
		return fmt.Sprintf("%d %s after %d runs, want %d", got, what, r.runs, want)
	}
	return ""
}

// TestHotStateHoldsNoPointers guards the values the hierarchy copies on
// every transaction: a pointer-bearing field in an event or a pooled
// transaction would bring back a write barrier on every heap move and make
// the garbage collector scan the heap and the pool.
func TestHotStateHoldsNoPointers(t *testing.T) {
	for _, v := range []any{event{}, txn{}, hold{}} {
		if p := pointerField(reflect.TypeOf(v)); p != "" {
			t.Errorf("%T%s holds a pointer", v, p)
		}
	}
}

// pointerField returns the path to the first field of t that holds a
// pointer the garbage collector must trace (a pointer, slice, map, chan,
// func, interface or string), or "" if t holds none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerField(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerField(t.Elem()); p != "" {
			return "[i]" + p
		}
		return ""
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return " (" + t.String() + ")"
}

// TestResponseStaysPacked guards the field order of Response and waiter:
// every delivery event carries a Response by value and every coalesced
// miss a waiter, and LQIdx fits in what would otherwise be padding.
func TestResponseStaysPacked(t *testing.T) {
	if got := unsafe.Sizeof(Response{}); got != 24 {
		t.Errorf("Response is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(waiter{}); got != 16 {
		t.Errorf("waiter is %d bytes, want 16", got)
	}
}

func TestCoalescingSameLine(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x20000)
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1})
	r.step()
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr + 8, Token: 2})
	r.runUntil(t, func() bool {
		return r.clients[0].gotToken(1) && r.clients[0].gotToken(2)
	}, 1000)
	if r.st.DRAMReads != 1 {
		t.Fatalf("coalesced miss issued %d DRAM reads", r.st.DRAMReads)
	}
}

func TestWriteInvalidatesSharer(t *testing.T) {
	r := newRig(t, 2)
	addr := uint64(0x30000)
	// Core 0 reads the line.
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	// Core 1 writes it.
	r.h.Submit(Request{Type: ReadExcl, Core: 1, Addr: addr, Token: 2})
	r.runUntil(t, func() bool { return r.clients[1].gotToken(2) }, 1000)
	if got := r.h.L1State(1, addr); got != coherence.Modified {
		t.Fatalf("writer L1 state = %v, want M", got)
	}
	if got := r.h.L1State(0, addr); got != coherence.Invalid {
		t.Fatalf("reader L1 state = %v, want I", got)
	}
	if len(r.clients[0].invalidations) != 1 ||
		r.clients[0].invalidations[0] != r.h.LineOf(addr) {
		t.Fatalf("invalidation callbacks: %v", r.clients[0].invalidations)
	}
	dir := r.h.LLCDir(addr)
	if dir.Owner != 1 || dir.Sharers != 0 {
		t.Fatalf("directory after GetX: %+v", dir)
	}
}

func TestReadAfterRemoteWriteForwardsFromOwner(t *testing.T) {
	r := newRig(t, 2)
	addr := uint64(0x40000)
	r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	r.h.Submit(Request{Type: ReadShared, Core: 1, Addr: addr, Token: 2})
	r.runUntil(t, func() bool { return r.clients[1].gotToken(2) }, 1000)
	// Both now Shared; directory has both as sharers, no owner.
	if got := r.h.L1State(0, addr); got != coherence.Shared {
		t.Fatalf("old owner state = %v, want S", got)
	}
	if got := r.h.L1State(1, addr); got != coherence.Shared {
		t.Fatalf("reader state = %v, want S", got)
	}
	dir := r.h.LLCDir(addr)
	if dir.Owner != coherence.NoOwner || !dir.HasSharer(0) || !dir.HasSharer(1) {
		t.Fatalf("directory after downgrade: %+v", dir)
	}
	if r.st.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (forward, not refetch)", r.st.DRAMReads)
	}
}

func TestSpecReadLeavesNoTrace(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x50000)
	// Warm an unrelated line in the same L1 set to have LRU state to check.
	other := addr + 64
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: other, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)

	llcLRUBefore := r.h.LLCLRUOrder(addr)
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr, Token: 2, LQIdx: 3, Epoch: 7})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)

	if got := r.h.L1State(0, addr); got != coherence.Invalid {
		t.Fatalf("Spec-GetS installed line in L1 (state %v)", got)
	}
	if r.h.LLCPresent(addr) {
		t.Fatal("Spec-GetS installed line in LLC")
	}
	llcLRUAfter := r.h.LLCLRUOrder(addr)
	if len(llcLRUBefore) != len(llcLRUAfter) {
		t.Fatal("Spec-GetS changed LLC occupancy")
	}
	for i := range llcLRUBefore {
		if llcLRUBefore[i] != llcLRUAfter[i] {
			t.Fatal("Spec-GetS perturbed LLC replacement state")
		}
	}
	// But the LLC-SB was filled for the later validation/exposure.
	ln, ep, valid := r.h.LLCSBEntry(0, 3)
	if !valid || ln != r.h.LineOf(addr) || ep != 7 {
		t.Fatalf("LLC-SB entry = (%d,%d,%v)", ln, ep, valid)
	}
}

func TestSpecReadServedByL1WithoutTouch(t *testing.T) {
	r := newRig(t, 1)
	base := uint64(0x60000)
	setStride := uint64(64 * 128) // same L1 set (128 sets in 64KB/8-way/64B)
	a, b := base, base+setStride
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: a, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: b, Token: 2})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	before := r.h.L1LRUOrder(0, a)
	// Spec-read line a (currently LRU): must hit in L1 but not promote it.
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: a, Token: 3})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(3) }, 100)
	if !r.clients[0].resp(3).L1Hit {
		t.Fatal("spec read missed resident line")
	}
	after := r.h.L1LRUOrder(0, a)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Spec-GetS perturbed L1 LRU: %v -> %v", before, after)
		}
	}
}

func TestValidationServedByLLCSB(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x70000)
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr, Token: 1, LQIdx: 5, Epoch: 3})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	dramBefore := r.st.DRAMReads
	r.h.Submit(Request{Type: Validate, Core: 0, Addr: addr, Token: 2, LQIdx: 5, Epoch: 3})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	if r.st.DRAMReads != dramBefore {
		t.Fatal("validation went to DRAM despite LLC-SB hit")
	}
	if !r.clients[0].resp(2).FromLLCSB {
		t.Fatal("response not flagged FromLLCSB")
	}
	if r.st.Cores[0].LLCSBHits != 1 {
		t.Fatalf("LLCSBHits = %d", r.st.Cores[0].LLCSBHits)
	}
	// The validation installs the line normally.
	if got := r.h.L1State(0, addr); got == coherence.Invalid {
		t.Fatal("validation did not install line in L1")
	}
	if !r.h.LLCPresent(addr) {
		t.Fatal("validation did not install line in LLC")
	}
	// And the LLC-SB entry is consumed (invalidated for all cores).
	if _, _, valid := r.h.LLCSBEntry(0, 5); valid {
		t.Fatal("LLC-SB entry not invalidated after use")
	}
}

func TestValidationEpochMismatchMissesLLCSB(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x80000)
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr, Token: 1, LQIdx: 5, Epoch: 3})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	dramBefore := r.st.DRAMReads
	// Squash bumped the epoch; the re-issued load validates with epoch 4.
	r.h.Submit(Request{Type: Validate, Core: 0, Addr: addr, Token: 2, LQIdx: 5, Epoch: 4})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	if r.st.DRAMReads != dramBefore+1 {
		t.Fatal("stale-epoch validation should refetch from DRAM")
	}
	if r.st.Cores[0].LLCSBMisses != 1 {
		t.Fatalf("LLCSBMisses = %d", r.st.Cores[0].LLCSBMisses)
	}
}

func TestSafeMissPurgesLLCSBs(t *testing.T) {
	r := newRig(t, 2)
	addr := uint64(0x90000)
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr, Token: 1, LQIdx: 2, Epoch: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	if _, _, valid := r.h.LLCSBEntry(0, 2); !valid {
		t.Fatal("LLC-SB not filled")
	}
	// Core 1 performs a safe read of the same line: core 0's LLC-SB entry
	// must be purged so its later validation refetches current data.
	r.h.Submit(Request{Type: ReadShared, Core: 1, Addr: addr, Token: 2})
	r.runUntil(t, func() bool { return r.clients[1].gotToken(2) }, 1000)
	if _, _, valid := r.h.LLCSBEntry(0, 2); valid {
		t.Fatal("safe access did not purge peer LLC-SB")
	}
}

func TestStaleSpecFillDropped(t *testing.T) {
	r := newRig(t, 1)
	addr1 := uint64(0xA0000)
	addr2 := uint64(0xB0000)
	// Newer-epoch fill first.
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr2, Token: 1, LQIdx: 0, Epoch: 9})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	// A stale (older-epoch) fill to the same entry must be dropped.
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr1, Token: 2, LQIdx: 0, Epoch: 5})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	ln, ep, valid := r.h.LLCSBEntry(0, 0)
	if !valid || ln != r.h.LineOf(addr2) || ep != 9 {
		t.Fatalf("stale fill overwrote entry: (%d,%d,%v)", ln, ep, valid)
	}
}

func TestSpecReadForwardedFromOwner(t *testing.T) {
	r := newRig(t, 2)
	addr := uint64(0xC0000)
	r.h.Submit(Request{Type: ReadExcl, Core: 1, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[1].gotToken(1) }, 1000)
	dirBefore := r.h.LLCDir(addr)
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr, Token: 2, LQIdx: 0, Epoch: 0})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	// Owner keeps M; directory unchanged; no invalidation at owner.
	if got := r.h.L1State(1, addr); got != coherence.Modified {
		t.Fatalf("owner state after Spec-GetS = %v, want M", got)
	}
	if r.h.LLCDir(addr) != dirBefore {
		t.Fatal("Spec-GetS changed directory state")
	}
	if len(r.clients[1].invalidations) != 0 {
		t.Fatal("Spec-GetS invalidated the owner")
	}
}

func TestPortLimit(t *testing.T) {
	r := newRig(t, 1)
	ok := 0
	for i := 0; i < 5; i++ {
		if r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: uint64(0x1000 + 64*i), Token: uint64(i)}) {
			ok++
		}
	}
	if ok != 3 { // L1D has 3 ports (Table IV)
		t.Fatalf("accepted %d requests in one cycle, want 3", ok)
	}
	r.step()
	if !r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: 0x9000, Token: 99}) {
		t.Fatal("port budget did not reset")
	}
}

func TestEvictionCallbackAndWriteback(t *testing.T) {
	r := newRig(t, 1)
	cfg := config.Default(1)
	sets := cfg.L1D.Sets()
	ways := cfg.L1D.Ways
	stride := uint64(sets * isa.LineBytes)
	// Write a line (dirty), then read ways more lines in the same set to
	// force its eviction and writeback.
	r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: 0, Token: 1000})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1000) }, 1000)
	for i := 1; i <= ways; i++ {
		tok := uint64(1000 + i)
		addr := stride * uint64(i)
		r.runUntil(t, func() bool {
			return r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: tok})
		}, 100)
		r.runUntil(t, func() bool { return r.clients[0].gotToken(tok) }, 1000)
	}
	if got := r.h.L1State(0, 0); got != coherence.Invalid {
		t.Fatalf("line 0 not evicted (state %v)", got)
	}
	found := false
	for _, e := range r.clients[0].evictions {
		if e == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no eviction callback for line 0: %v", r.clients[0].evictions)
	}
	// Directory must have dropped core 0's ownership of line 0 (PutM).
	r.runUntil(t, func() bool { return r.h.LLCDir(0).Owner == coherence.NoOwner }, 1000)
	if r.st.TrafficBytes[stats.TrafficWriteback] == 0 {
		t.Fatal("dirty eviction produced no writeback traffic")
	}
}

func TestIFetchPath(t *testing.T) {
	r := newRig(t, 1)
	iaddr := uint64(1) << 40
	r.h.Submit(Request{Type: IFetch, Core: 0, Addr: iaddr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	// Second fetch of the same line hits the L1I.
	r.h.Submit(Request{Type: IFetch, Core: 0, Addr: iaddr + 32, Token: 2})
	lat := r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 100)
	if lat > 3 {
		t.Fatalf("L1I hit took %d cycles", lat)
	}
	if r.st.TrafficBytes[stats.TrafficFetch] == 0 {
		t.Fatal("instruction fetch produced no fetch-class traffic")
	}
}

func TestTrafficClassSplit(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0xD0000)
	r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr, Token: 1, LQIdx: 0, Epoch: 0})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	r.h.Submit(Request{Type: Expose, Core: 0, Addr: addr, Token: 2, LQIdx: 0, Epoch: 0})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	if r.st.TrafficBytes[stats.TrafficSpecLoad] == 0 {
		t.Fatal("no spec-load traffic recorded")
	}
	if r.st.TrafficBytes[stats.TrafficValExp] == 0 {
		t.Fatal("no expose/validate traffic recorded")
	}
}

func TestPrefetcherFollowsStreams(t *testing.T) {
	cfg := config.Default(1)
	cfg.HWPrefetch = true
	st := stats.NewMachine(1)
	h := New(cfg, st)
	cl := &testClient{}
	h.Connect(0, cl)
	h.Tick(0)
	r := &rig{h: h, st: st, clients: []*testClient{cl}}
	addr := uint64(0x10000)
	// A single cold miss trains nothing: no prefetch (random workloads pay
	// no useless bandwidth).
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return cl.gotToken(1) }, 2000)
	for extra := 0; extra < 300; extra++ {
		r.step()
	}
	if r.h.L1State(0, addr+64) != coherence.Invalid {
		t.Fatal("an isolated miss must not prefetch")
	}
	// Sequential misses build confidence and start the stream.
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr + 64, Token: 2})
	r.runUntil(t, func() bool { return cl.gotToken(2) }, 2000)
	r.runUntil(t, func() bool {
		return r.h.L1State(0, addr+128) != coherence.Invalid
	}, 4000)
	// Hits on prefetched lines re-arm the stream and ramp the distance.
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr + 128, Token: 3})
	r.runUntil(t, func() bool { return cl.gotToken(3) }, 2000)
	r.runUntil(t, func() bool {
		return r.h.L1State(0, addr+128+64*4) != coherence.Invalid
	}, 4000)
	// Far-away random misses reset confidence: no prefetch there.
	far := uint64(0x900000)
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: far, Token: 4})
	r.runUntil(t, func() bool { return cl.gotToken(4) }, 2000)
	for extra := 0; extra < 300; extra++ {
		r.step()
	}
	if r.h.L1State(0, far+64) != coherence.Invalid {
		t.Fatal("a random miss after a stream must not prefetch")
	}
}

func TestSpecReadDoesNotTriggerPrefetch(t *testing.T) {
	cfg := config.Default(1)
	cfg.HWPrefetch = true
	st := stats.NewMachine(1)
	h := New(cfg, st)
	cl := &testClient{}
	h.Connect(0, cl)
	h.Tick(0)
	r := &rig{h: h, st: st, clients: []*testClient{cl}}
	addr := uint64(0x20000)
	// Even a sequential run of Spec-GetS reads must not train or trigger
	// the prefetcher: speculative accesses are invisible to it.
	for i := uint64(0); i < 4; i++ {
		tok := i + 1
		r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: addr + 64*i, Token: tok, LQIdx: int(i)})
		r.runUntil(t, func() bool { return cl.gotToken(tok) }, 2000)
	}
	for extra := 0; extra < 300; extra++ {
		r.step()
	}
	for d := 0; d <= cfg.PrefetchDegree+4; d++ {
		if r.h.L1State(0, addr+uint64(64*d)) != coherence.Invalid {
			t.Fatalf("Spec-GetS stream triggered a (visible!) prefetch of line +%d", d)
		}
	}
}

func TestFlushLine(t *testing.T) {
	r := newRig(t, 2)
	addr := uint64(0xE0000)
	// Dirty in core 0, LLC-SB entry in core 1.
	r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
	r.h.Submit(Request{Type: SpecRead, Core: 1, Addr: addr + 4096, Token: 2, LQIdx: 1, Epoch: 0})
	r.runUntil(t, func() bool { return r.clients[1].gotToken(2) }, 1000)

	wbBefore := r.st.DRAMWrites
	r.h.FlushLine(addr)
	if got := r.h.L1State(0, addr); got != coherence.Invalid {
		t.Fatalf("L1 state after flush = %v", got)
	}
	if r.h.LLCPresent(addr) {
		t.Fatal("LLC line survived flush")
	}
	if r.st.DRAMWrites != wbBefore+1 {
		t.Fatalf("dirty flush wrote %d lines to DRAM, want 1", r.st.DRAMWrites-wbBefore)
	}
	// Flushing the spec-read line purges the LLC-SB entry.
	r.h.FlushLine(addr + 4096)
	if _, _, valid := r.h.LLCSBEntry(1, 1); valid {
		t.Fatal("flush did not purge the LLC-SB")
	}
	// The flushed line's holder was notified (conventional squash rule).
	found := false
	for _, ln := range r.clients[0].invalidations {
		if ln == r.h.LineOf(addr) {
			found = true
		}
	}
	if !found {
		t.Fatal("flush sent no invalidation callback")
	}
}

func TestIFetchSpecLeavesNoTrace(t *testing.T) {
	r := newRig(t, 1)
	iaddr := uint64(3) << 40
	r.h.Submit(Request{Type: IFetchSpec, Core: 0, Addr: iaddr, Token: 1})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 2000)
	if r.h.L1IPresent(0, iaddr) {
		t.Fatal("invisible instruction fetch installed into the L1I")
	}
	if r.h.LLCPresent(iaddr) {
		t.Fatal("invisible instruction fetch installed into the LLC")
	}
	// A later visible fetch installs normally and then invisible fetches
	// hit it without touching replacement state.
	r.h.Submit(Request{Type: IFetch, Core: 0, Addr: iaddr, Token: 2})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 2000)
	if !r.h.L1IPresent(0, iaddr) {
		t.Fatal("visible fetch did not install")
	}
	r.h.Submit(Request{Type: IFetchSpec, Core: 0, Addr: iaddr, Token: 3})
	lat := r.runUntil(t, func() bool { return r.clients[0].gotToken(3) }, 100)
	if lat > 3 {
		t.Fatalf("invisible fetch of resident line took %d cycles", lat)
	}
}

// TestFlushDuringTransactionOrdersAfterFill flushes a line while its home
// bank holds it for a read miss: the bank has committed the directory
// update and the response is on its way, but the L1 fill has not happened.
// The fill must not leave the L1 holding a line the LLC has dropped, so the
// flush also applies once the transaction ends, and the line is then
// cached nowhere.
func TestFlushDuringTransactionOrdersAfterFill(t *testing.T) {
	r := newRig(t, 1)
	addr := uint64(0x30000)
	ln := r.h.LineOf(addr)
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1})
	r.runUntil(t, func() bool { return r.h.BankBusy(ln) }, 1000)
	if r.clients[0].gotToken(1) {
		t.Fatal("set-up: the read completed before its bank transaction")
	}
	r.h.FlushLine(addr)
	r.runUntil(t, func() bool { return r.clients[0].gotToken(1) && !r.h.BankBusy(ln) }, 1000)
	if st := r.h.L1State(0, addr); st != coherence.Invalid || r.h.LLCPresent(addr) {
		t.Fatalf("after the transaction: L1 state %v, LLC present %v; want the line cached nowhere",
			st, r.h.LLCPresent(addr))
	}
	if n := len(r.clients[0].invalidations); n != 1 {
		t.Fatalf("core saw %d invalidations, want 1 (the flush reaching the filled copy)", n)
	}
	// The next access misses everywhere and the hierarchy stays inclusive.
	r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 2})
	r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
	if r.h.L1State(0, addr) == coherence.Invalid || !r.h.LLCPresent(addr) {
		t.Fatal("re-read after the flush did not install in the L1 and the LLC")
	}
}

// TestEventHeapPopsInCycleSeqOrder interleaves pushes at random cycles
// with pops and checks that events come out ordered by (cycle, seq), the
// order the hierarchy's determinism rests on, each with its own fields.
func TestEventHeapPopsInCycleSeqOrder(t *testing.T) {
	type key struct{ cycle, seq uint64 }
	rng := rand.New(rand.NewSource(1))
	var (
		q       eventHeap
		nextSeq uint64
		last    key
	)
	for popped := 0; popped < 5000; {
		for n := rng.Intn(4); n > 0; n-- {
			nextSeq++
			// Never before the last popped cycle, as schedule guarantees.
			cycle := last.cycle + uint64(rng.Intn(8))
			q.push(event{cycle: cycle, seq: nextSeq, kind: evKind(nextSeq % 10),
				line: nextSeq, tx: int32(nextSeq), resp: Response{Token: nextSeq}})
		}
		for n := rng.Intn(4); n > 0 && len(q) > 0; n-- {
			ev := q.pop()
			got := key{ev.cycle, ev.seq}
			if popped > 0 && (got.cycle < last.cycle || got.cycle == last.cycle && got.seq < last.seq) {
				t.Fatalf("pop %d: event %v after %v", popped, got, last)
			}
			if ev.kind != evKind(ev.seq%10) || ev.line != ev.seq || ev.tx != int32(ev.seq) || ev.resp.Token != ev.seq {
				t.Fatalf("pop %d: event %v came out with another event's fields: %+v", popped, got, ev)
			}
			last = got
			popped++
		}
	}
}
