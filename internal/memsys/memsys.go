// Package memsys assembles the simulated memory hierarchy: per-core private
// L1 instruction and data caches, a banked, inclusive, directory-based MESI
// shared L2/LLC, the mesh interconnect, a DRAM channel, and InvisiSpec's
// per-core LLC speculative buffers (LLC-SBs).
//
// The hierarchy is a timing and coherence-state model only: architectural
// values live in the machine's functional memory (internal/isa.Memory); the
// core reads and writes values at the instants this package delivers
// responses. Internally the hierarchy is event-driven — each transaction
// computes its timeline from NoC, bank, and DRAM latencies and schedules
// its next steps as events, each a kind plus plain fields — while
// presenting a cycle-stepped Tick interface to the simulation engine.
//
// The InvisiSpec additions (paper §V-F, §VI-C, §VI-E1):
//   - SpecRead requests implement the Spec-GetS transaction: they probe
//     caches without updating replacement or coherence state, are never
//     installed anywhere, bounce-and-retry when they race with an ownership
//     transfer, and on an LLC miss fill the requesting core's LLC-SB on the
//     data's way back from memory.
//   - Validate and Expose requests are ordinary GetS transactions except
//     that on an LLC miss they first consult the requester's LLC-SB
//     (address + epoch match) to avoid a second main-memory access.
//   - Any non-speculative access that misses in the LLC invalidates the
//     line from every core's LLC-SB.
package memsys

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/dram"
	"invisispec/internal/isa"
	"invisispec/internal/noc"
	"invisispec/internal/stats"
)

// ReqType classifies core-to-hierarchy requests.
type ReqType uint8

// Request types.
const (
	ReadShared ReqType = iota // safe load: coherent GetS, installs in L1
	ReadExcl                  // store drain / RMW: GetX, installs in M
	SpecRead                  // USL: Spec-GetS, invisible
	Validate                  // InvisiSpec validation: GetS + LLC-SB
	Expose                    // InvisiSpec exposure: GetS + LLC-SB
	IFetch                    // instruction fetch
	// IFetchSpec is an invisible instruction fetch (ProtectICache,
	// paper footnote 2): data is returned but no cache state changes.
	IFetchSpec
)

// String names the request type.
func (t ReqType) String() string {
	switch t {
	case ReadShared:
		return "read"
	case ReadExcl:
		return "read-excl"
	case SpecRead:
		return "spec-read"
	case Validate:
		return "validate"
	case Expose:
		return "expose"
	case IFetch:
		return "ifetch"
	case IFetchSpec:
		return "ifetch-spec"
	}
	return fmt.Sprintf("ReqType(%d)", uint8(t))
}

func (t ReqType) trafficClass() stats.TrafficClass {
	switch t {
	case SpecRead:
		return stats.TrafficSpecLoad
	case Validate, Expose:
		return stats.TrafficValExp
	case IFetch, IFetchSpec:
		return stats.TrafficFetch
	}
	return stats.TrafficNormal
}

// Request is one core-originated memory transaction.
type Request struct {
	Type ReqType
	Core int
	Addr uint64
	// Token is echoed in the Response; the core uses it to match responses
	// to load/store queue entries and to discard stale (squashed) replies.
	Token uint64
	// LQIdx is the load's load-queue slot, echoed in the Response. It
	// also indexes the core's LLC-SB (1:1 with load-queue entries) for
	// SpecRead fills and Validate/Expose lookups.
	LQIdx int
	// Epoch is the core's squash epoch (§VI-C).
	Epoch uint64
}

// Response reports a completed transaction back to the core.
type Response struct {
	Token uint64
	Addr  uint64
	Type  ReqType
	// L1Hit: the request was satisfied by the local L1 (for Table VI's
	// validation-hit breakdown).
	L1Hit bool
	// FromLLCSB: a Validate/Expose was served by the LLC-SB.
	FromLLCSB bool
	// Bounced: a Spec-GetS raced with an ownership transfer and was
	// returned unserved (§VI-E1); the core re-issues it if the USL is
	// still alive (squashed USLs simply drop the bounce).
	Bounced bool
	// LQIdx echoes the request's LQIdx: the load-queue slot a load's
	// response is for. It sits in what would be padding, which keeps a
	// Response, carried by value in every delivery event, at 24 bytes.
	LQIdx int32
}

// response returns the Response that answers r.
func (r Request) response() Response {
	return Response{Token: r.Token, Addr: r.Addr, Type: r.Type, LQIdx: int32(r.LQIdx)}
}

// Client is the core-side interface the hierarchy calls back into.
type Client interface {
	// Deliver hands a completed transaction to the core at cycle now.
	Deliver(now uint64, resp Response)
	// OnInvalidate reports that the coherence protocol invalidated lineNum
	// from this core's L1 (the trigger for consistency squashes and
	// InvisiSpec early squashes).
	OnInvalidate(now uint64, lineNum uint64)
	// OnL1Evict reports that lineNum was evicted from this core's L1 by a
	// replacement (conventional cores squash performed loads on this too).
	OnL1Evict(now uint64, lineNum uint64)
}

// FaultInjector perturbs the hierarchy's timing deterministically (see
// internal/faultinject). Both hooks receive the nominal completion cycle and
// return the (possibly delayed) one; they must never return a cycle before
// the nominal one, so perturbation can stretch but never reorder a
// transaction's internal timeline.
type FaultInjector interface {
	// NoCDeliver perturbs a mesh message's delivery cycle (extra latency,
	// or a modelled drop-and-retransmit with capped backoff).
	NoCDeliver(now, deliver uint64) uint64
	// DRAMReady perturbs a DRAM access's data-ready cycle.
	DRAMReady(now, ready uint64) uint64
}

// Hierarchy is the whole memory system.
type Hierarchy struct {
	cfg  config.Machine
	st   *stats.Machine
	noc  *noc.Mesh
	dram *dram.DRAM
	l1d  []*l1
	l1i  []*l1
	bank []*bank
	sb   []*llcSB

	clients []Client

	now    uint64
	events eventHeap
	seq    uint64

	// Event conservation: every schedule increments scheduled, every
	// executed event increments run, so scheduled == run + len(events)
	// always.
	eventsScheduled uint64
	eventsRun       uint64

	// txns is the pool of transactions on their way to, queued at or held
	// by a bank; events and queues name them by index. freeTxn heads the
	// chain of free entries through their next fields.
	txns    []txn
	freeTxn int32

	// recallPending counts in-flight inclusive-LLC recall invalidations per
	// line: the window where the LLC has already dropped a victim but the
	// L1 copies are still awaiting their invalidation events. The coherence
	// invariant checker must exempt these lines from inclusivity checks.
	recallPending map[uint64]int

	fault FaultInjector
}

// SetFaultInjector installs (or, with nil, removes) a deterministic timing
// perturbator. Call before the first Tick.
func (h *Hierarchy) SetFaultInjector(f FaultInjector) { h.fault = f }

// New assembles the hierarchy for the given machine.
func New(cfg config.Machine, st *stats.Machine) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:           cfg,
		st:            st,
		clients:       make([]Client, cfg.Cores),
		recallPending: make(map[uint64]int),
		freeTxn:       noTxn,
	}
	h.buildComponents()
	return h
}

// LineOf returns the line number of a byte address.
func (h *Hierarchy) LineOf(addr uint64) uint64 { return addr / isa.LineBytes }

// homeBank returns the LLC bank index owning a line.
func (h *Hierarchy) homeBank(lineNum uint64) int { return int(lineNum) % len(h.bank) }

// Connect registers the client for a core. It must be called for every core
// before the first Tick.
func (h *Hierarchy) Connect(core int, c Client) { h.clients[core] = c }

// Tick advances the hierarchy to cycle now, running every event scheduled at
// or before it, and resets per-cycle port budgets.
func (h *Hierarchy) Tick(now uint64) {
	h.now = now
	h.noc.Advance(now)
	for len(h.events) > 0 && h.events[0].cycle <= now {
		ev := h.events.pop()
		h.eventsRun++
		switch ev.kind {
		case evDeliver:
			h.clients[ev.core].Deliver(h.now, ev.resp)
		case evEnqueue:
			h.bankEnqueue(ev.tx)
		case evFill:
			tx := h.txns[ev.tx]
			h.releaseTxn(ev.tx)
			c := h.l1d[tx.core]
			if tx.isIFetch {
				c = h.l1i[tx.core]
			}
			h.fillL1(c, tx.req, tx.lineNum, tx.grant, tx.servedSB)
			h.bankRelease(h.bank[h.homeBank(tx.lineNum)], tx.lineNum)
		case evRelease:
			h.bankRelease(h.bank[h.homeBank(ev.line)], ev.line)
		case evInvalidate:
			h.invalidateL1(int(ev.core), ev.line)
		case evDowngrade:
			h.downgradeL1(int(ev.core), ev.line)
		case evRecall:
			h.invalidateL1(int(ev.core), ev.line)
			h.l1i[ev.core].arr.Invalidate(ev.line)
			if h.recallPending[ev.line]--; h.recallPending[ev.line] == 0 {
				delete(h.recallPending, ev.line)
			}
		case evSpec:
			h.specProcess(ev.tx)
		case evSpecForward:
			h.specForwarded(ev.tx, int(ev.core))
		case evIFetchSpec:
			h.ifetchSpecProcess(int(ev.core), ev.resp)
		default:
			panic(fmt.Sprintf("memsys: unknown event kind %d", ev.kind))
		}
	}
	for _, c := range h.l1d {
		c.portsUsed = 0
	}
	for _, c := range h.l1i {
		c.portsUsed = 0
	}
}

// deliverAt schedules the delivery of resp to core at the given cycle.
func (h *Hierarchy) deliverAt(cycle uint64, core int, resp Response) {
	h.schedule(event{cycle: cycle, kind: evDeliver, core: int32(core), resp: resp})
}

// schedule queues ev to run at its cycle, clamped to the next tick if in the
// past. Events at the same cycle run in scheduling order.
func (h *Hierarchy) schedule(ev event) {
	if ev.cycle <= h.now {
		ev.cycle = h.now + 1
	}
	h.seq++
	ev.seq = h.seq
	h.eventsScheduled++
	h.events.push(ev)
}

// NextWake implements the engine.Component quiescence contract: the
// hierarchy's next non-trivial work is exactly its event-heap head (schedule
// clamps events to the future, so post-tick the head is strictly ahead
// of now). With an empty heap the hierarchy is fully drained and only a
// core-side submission can create work.
func (h *Hierarchy) NextWake(now uint64) uint64 {
	if len(h.events) == 0 {
		return ^uint64(0) // engine.Never
	}
	if head := h.events[0].cycle; head > now {
		return head
	}
	return now + 1
}

// evKind names what an event does when Tick runs it.
type evKind uint8

// Event kinds. Each names the fields of event it reads.
const (
	evDeliver     evKind = iota // hand resp to core
	evEnqueue                   // transaction tx reaches its home bank
	evFill                      // tx's data reaches its L1; the bank then releases the line
	evRelease                   // the bank releases line (a Put has been applied)
	evInvalidate                // a directory invalidation of line reaches core's L1D
	evDowngrade                 // a GetS forward moves core's owned copy of line to Shared
	evRecall                    // an inclusive-LLC recall of line reaches core's L1s
	evSpec                      // Spec-GetS tx reaches its home bank
	evSpecForward               // Spec-GetS tx, forwarded by its bank, reaches owner core
	evIFetchSpec                // an invisible instruction fetch answered by resp for core reaches its home bank
)

// event is one scheduled step of a transaction: a kind plus the plain
// fields that kind reads, captured when it is scheduled. It holds no
// pointer, so the heap moves events without write barriers.
type event struct {
	cycle uint64
	seq   uint64
	line  uint64
	resp  Response
	core  int32
	tx    int32
	kind  evKind
}

// eventHeap is a binary min-heap of events ordered by (cycle, seq). No two
// events share a seq, so the order is total and events pop in the same
// order whatever the heap's shape. It holds events by value, so scheduling
// one allocates nothing once the heap has grown.
type eventHeap []event

func (q eventHeap) less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}

func (q *eventHeap) push(ev event) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes the earliest event and returns it.
func (q *eventHeap) pop() event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return ev
}
