package memsys

import (
	"invisispec/internal/cache"
	"invisispec/internal/coherence"
	"invisispec/internal/config"
	"invisispec/internal/dram"
	"invisispec/internal/isa"
	"invisispec/internal/noc"
	"invisispec/internal/stats"
)

// l1 is one private cache (L1D or L1I) plus its miss machinery.
type l1 struct {
	core int
	arr  *cache.Array
	// mshrs holds the live miss-status holding registers, one per
	// outstanding line; its capacity is the MSHR count. Every allocation
	// is paired with exactly one free, so allocs - frees == len(mshrs).
	// The slots past len keep the waiter arrays of freed entries for the
	// next misses to reuse, and spare keeps the one the last fill
	// delivered from.
	mshrs         []mshr
	spare         []waiter
	allocs, frees uint64
	latency       uint64
	ports         int
	portsUsed     int
	instr         bool // instruction cache (read-only, no coherence tracking)
	pf            streamDetector
}

// mshr is one outstanding miss: the line, the coherence request fetching
// it, and the requests coalesced onto it in arrival order.
type mshr struct {
	kind    coherence.ReqKind // GetS or GetX
	lineNum uint64
	waiters []waiter
}

// streamDetector is the confidence side of the stream prefetcher: it only
// prefetches when recent visible misses advance through sequential lines,
// and ramps its distance with confidence, so random-access workloads pay
// no useless prefetch bandwidth.
type streamDetector struct {
	lastLine uint64
	conf     int
}

// observe feeds a visible access at lineNum and returns how many lines
// ahead to prefetch (0 = not a stream).
func (s *streamDetector) observe(lineNum uint64, maxDegree int) int {
	switch {
	case lineNum == s.lastLine:
		// repeated trigger on the same line: keep confidence
	case lineNum == s.lastLine+1 || lineNum == s.lastLine+2:
		if s.conf < 4 {
			s.conf++
		}
	default:
		s.conf = 0
	}
	s.lastLine = lineNum
	if s.conf == 0 {
		return 0
	}
	d := s.conf * maxDegree / 4
	if d < 1 {
		d = 1
	}
	return d
}

// waiter is one coalesced request parked on an outstanding miss.
type waiter struct {
	token uint64
	typ   ReqType
	lqIdx int32
}

func newL1(core int, lines *cache.Store, p config.CacheParams, instr bool) *l1 {
	return &l1{
		core:    core,
		arr:     lines.NewArray(p.Sets(), p.Ways),
		mshrs:   make([]mshr, 0, p.MSHRs),
		latency: uint64(p.LatencyRT),
		ports:   p.Ports,
		instr:   instr,
	}
}

// miss returns the MSHR a request for lineNum needing kind waits on: the
// line's outstanding miss, or a free entry claimed for it (fresh), whose
// request the caller sends to the home bank. It returns nil when the
// request must retry: a GetX cannot join a GetS miss (it needs ownership),
// and a new miss needs a free entry.
func (c *l1) miss(lineNum uint64, kind coherence.ReqKind) (m *mshr, fresh bool) {
	if i := c.mshrOf(lineNum); i >= 0 {
		if m = &c.mshrs[i]; kind == coherence.GetX && m.kind != coherence.GetX {
			return nil, false
		}
		return m, false
	}
	n := len(c.mshrs)
	if n == cap(c.mshrs) {
		return nil, false
	}
	c.allocs++
	c.mshrs = c.mshrs[:n+1]
	m = &c.mshrs[n]
	m.kind, m.lineNum, m.waiters = kind, lineNum, m.waiters[:0]
	return m, true
}

// mshrOf returns the index of lineNum's live MSHR, or -1.
func (c *l1) mshrOf(lineNum uint64) int {
	for i := range c.mshrs {
		if c.mshrs[i].lineNum == lineNum {
			return i
		}
	}
	return -1
}

func (c *l1) portAvailable() bool { return c.portsUsed < c.ports }

func (c *l1) usePort() { c.portsUsed++ }

func (h *Hierarchy) buildComponents() {
	cfg := h.cfg
	h.noc = noc.New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, cfg.LinkBytes, h.st)
	h.dram = dram.New(cfg.DRAMLatency, cfg.DRAMBandwidth)
	lines := new(cache.Store) // every L1 and LLC bank carves its ways here
	for i := 0; i < cfg.Cores; i++ {
		h.l1d = append(h.l1d, newL1(i, lines, cfg.L1D, false))
		h.l1i = append(h.l1i, newL1(i, lines, cfg.L1I, true))
		h.bank = append(h.bank, newBank(i, lines, cfg))
		h.sb = append(h.sb, newLLCSB(cfg.LQEntries))
	}
}

// send puts a message on the mesh at cycle now and returns its (possibly
// perturbed) delivery cycle.
func (h *Hierarchy) send(now uint64, src, dst, bytes int, class stats.TrafficClass) uint64 {
	t := h.noc.Send(now, src, dst, bytes, class)
	if h.fault != nil {
		t = h.fault.NoCDeliver(now, t)
	}
	return t
}

// dramRead reads a line from DRAM at cycle now, charging its data message
// to class, and returns the (possibly perturbed) data-ready cycle.
func (h *Hierarchy) dramRead(now uint64, class stats.TrafficClass) uint64 {
	h.st.DRAMReads++
	h.st.AddTraffic(class, uint64(h.cfg.DataMsgBytes))
	t := h.dram.Read(now, h.cfg.DataMsgBytes)
	if h.fault != nil {
		t = h.fault.DRAMReady(now, t)
	}
	return t
}

// dramWrite posts a line write-back to DRAM at cycle now. Nothing waits on
// it, but the fault injector still draws for it, as for every DRAM access.
func (h *Hierarchy) dramWrite(now uint64) {
	h.st.DRAMWrites++
	t := h.dram.Write(now, h.cfg.DataMsgBytes)
	if h.fault != nil {
		h.fault.DRAMReady(now, t)
	}
}

// Submit hands a request to the hierarchy at the current cycle. It returns
// false when a structural hazard (cache port or MSHR exhaustion) rejects the
// request; the core must retry on a later cycle.
func (h *Hierarchy) Submit(req Request) bool {
	if req.Type == IFetch {
		return h.submitIFetch(req)
	}
	if req.Type == IFetchSpec {
		return h.submitIFetchSpec(req)
	}
	c := h.l1d[req.Core]
	if !c.portAvailable() {
		return false
	}
	lineNum := h.LineOf(req.Addr)
	switch req.Type {
	case SpecRead:
		return h.submitSpecRead(c, req, lineNum)
	case ReadShared, Validate, Expose:
		return h.submitRead(c, req, lineNum)
	case ReadExcl:
		return h.submitReadExcl(c, req, lineNum)
	}
	panic("memsys: unknown request type")
}

// submitRead handles coherent read-for-share requests (safe loads,
// validations, exposures).
func (h *Hierarchy) submitRead(c *l1, req Request, lineNum uint64) bool {
	if line := c.arr.Lookup(lineNum); line != nil {
		c.usePort()
		c.arr.Touch(lineNum)
		if line.Prefetched {
			// First demand touch of a prefetched line re-arms the tagged
			// next-line prefetcher.
			line.Prefetched = false
			h.triggerPrefetch(c, req.Core, lineNum)
		}
		h.st.Cores[req.Core].L1DHits++
		h.deliverHit(c, req)
		return true
	}
	fresh, ok := h.waitMiss(c, req, lineNum, coherence.GetS)
	if ok && fresh {
		h.sendToBank(req, lineNum, coherence.GetS)
		h.triggerPrefetch(c, req.Core, lineNum)
	}
	return ok
}

// waitMiss parks a demand request that missed in c on lineNum's MSHR, as
// a waiter on the line's outstanding miss or on a fresh entry whose kind
// request the caller sends. It returns ok false, using no port, when the
// request must retry (see l1.miss).
func (h *Hierarchy) waitMiss(c *l1, req Request, lineNum uint64, kind coherence.ReqKind) (fresh, ok bool) {
	m, fresh := c.miss(lineNum, kind)
	if m == nil {
		return false, false
	}
	c.usePort()
	m.waiters = append(m.waiters, waiter{token: req.Token, typ: req.Type, lqIdx: int32(req.LQIdx)})
	if !c.instr {
		h.st.Cores[req.Core].L1DMisses++
	}
	return fresh, true
}

// prefetchToken marks hardware-prefetch requests; cores never use it, so
// prefetch fills wake no waiters and deliver no responses.
const prefetchToken = 0

// triggerPrefetch runs the stream prefetcher after a visible demand miss
// or the first touch of a prefetched line. Prefetches are issued only once
// the detector has seen a sequential miss stream, and the distance ramps
// with confidence up to PrefetchDegree. Spec-GetS accesses never reach
// this path: the prefetcher is invisible-speculation-safe (§VI-B).
func (h *Hierarchy) triggerPrefetch(c *l1, core int, lineNum uint64) {
	if !h.cfg.HWPrefetch {
		return
	}
	degree := c.pf.observe(lineNum, h.cfg.PrefetchDegree)
	for d := 1; d <= degree; d++ {
		ln := lineNum + uint64(d)
		if c.arr.Lookup(ln) != nil {
			continue
		}
		m, fresh := c.miss(ln, coherence.GetS)
		if m == nil {
			return
		}
		if fresh {
			req := Request{Type: ReadShared, Core: core, Addr: ln * isa.LineBytes, Token: prefetchToken}
			h.sendToBank(req, ln, coherence.GetS)
		}
	}
}

// submitReadExcl handles store drains and atomics.
func (h *Hierarchy) submitReadExcl(c *l1, req Request, lineNum uint64) bool {
	if line := c.arr.Lookup(lineNum); line != nil &&
		coherence.State(line.State) != coherence.Shared {
		// Hit in E or M: silent upgrade to M.
		c.usePort()
		c.arr.Touch(lineNum)
		line.State = uint8(coherence.Modified)
		line.Dirty = true
		h.st.Cores[req.Core].L1DHits++
		h.deliverHit(c, req)
		return true
	}
	// Miss or S-state upgrade: needs a GetX at the directory.
	fresh, ok := h.waitMiss(c, req, lineNum, coherence.GetX)
	if ok && fresh {
		h.sendToBank(req, lineNum, coherence.GetX)
	}
	return ok
}

// submitSpecRead handles InvisiSpec Spec-GetS transactions. They never
// change L1 state (not even LRU), never coalesce with demand misses, and are
// not bounded by the demand MSHR file (each in-flight USL has at most one).
func (h *Hierarchy) submitSpecRead(c *l1, req Request, lineNum uint64) bool {
	c.usePort()
	if line := c.arr.Lookup(lineNum); line != nil {
		// Served by the local L1 copy, which remains untouched (§VI-A2).
		h.deliverHit(c, req)
		return true
	}
	h.sendSpecToBank(req, lineNum)
	return true
}

// submitIFetch handles instruction fetches.
func (h *Hierarchy) submitIFetch(req Request) bool {
	c := h.l1i[req.Core]
	if !c.portAvailable() {
		return false
	}
	lineNum := h.LineOf(req.Addr)
	if c.arr.Lookup(lineNum) != nil {
		c.usePort()
		c.arr.Touch(lineNum)
		h.deliverHit(c, req)
		return true
	}
	fresh, ok := h.waitMiss(c, req, lineNum, coherence.GetS)
	if ok && fresh {
		h.sendIFetchToBank(req, lineNum)
	}
	return ok
}

// submitIFetchSpec handles invisible instruction fetches (ProtectICache):
// an L1I hit is served without a replacement update; a miss reads through
// the LLC and DRAM without installing anywhere.
func (h *Hierarchy) submitIFetchSpec(req Request) bool {
	c := h.l1i[req.Core]
	if !c.portAvailable() {
		return false
	}
	c.usePort()
	lineNum := h.LineOf(req.Addr)
	if c.arr.Lookup(lineNum) != nil { // no Touch
		h.deliverHit(c, req)
		return true
	}
	h.sendIFetchSpecToBank(req, lineNum)
	return true
}

// deliverHit answers req from c's array after the hit latency.
func (h *Hierarchy) deliverHit(c *l1, req Request) {
	resp := req.response()
	resp.L1Hit = true
	h.deliverAt(h.now+c.latency, req.Core, resp)
}

// fillL1 installs a granted line into the L1 at the current cycle, issuing
// eviction (Put*) transactions and the core eviction callback for any
// victim, then answers the waiters coalesced on the line's MSHR. It frees
// the entry and detaches its waiters before the first delivery: a core may
// submit a new miss from inside Deliver, which must find the line's entry
// gone and may reuse its slot. The freed slot keeps the array the previous
// fill delivered from, never the one this fill delivers from.
func (h *Hierarchy) fillL1(c *l1, req Request, lineNum uint64, grant coherence.State, servedLLCSB bool) {
	line, victim, hadVictim := c.arr.Insert(lineNum)
	line.State = uint8(grant)
	line.Dirty = grant == coherence.Modified
	line.Prefetched = req.Token == prefetchToken
	if hadVictim && !c.instr {
		h.evictFromL1(c, victim)
	}
	i := c.mshrOf(lineNum)
	waiters := c.mshrs[i].waiters
	last := len(c.mshrs) - 1
	c.mshrs[i] = c.mshrs[last]
	c.mshrs[last] = mshr{waiters: c.spare}
	c.spare = waiters
	c.mshrs = c.mshrs[:last]
	c.frees++
	for _, w := range waiters {
		resp := Response{Token: w.token, Addr: req.Addr, Type: w.typ, FromLLCSB: servedLLCSB, LQIdx: w.lqIdx}
		h.clients[req.Core].Deliver(h.now, resp)
	}
}

// evictFromL1 handles a replacement victim: notify the core (conventional
// TSO implementations squash performed loads on eviction) and send the
// appropriate Put transaction to keep the directory precise.
func (h *Hierarchy) evictFromL1(c *l1, victim cache.Line) {
	h.clients[c.core].OnL1Evict(h.now, victim.LineNum)
	st := coherence.State(victim.State)
	kind := coherence.PutS
	bytes := h.cfg.CtrlMsgBytes
	if st == coherence.Exclusive || st == coherence.Modified {
		kind = coherence.PutM
		if victim.Dirty {
			bytes = h.cfg.DataMsgBytes
		}
	}
	home := h.homeBank(victim.LineNum)
	arrive := h.send(h.now, c.core, home, bytes, stats.TrafficWriteback)
	tx := h.newTxn(txn{kind: kind, core: c.core, lineNum: victim.LineNum, dirty: victim.Dirty})
	h.schedule(event{cycle: arrive, kind: evEnqueue, tx: tx})
}

// invalidateL1 drops a line from a core's L1 on a directory invalidation
// and fires the squash callback.
func (h *Hierarchy) invalidateL1(core int, lineNum uint64) {
	if h.l1d[core].arr.Invalidate(lineNum) {
		h.clients[core].OnInvalidate(h.now, lineNum)
	}
}

// downgradeL1 moves an owned line to Shared (GetS forward); clean or dirty,
// the data was written back by the transaction, so the copy becomes clean.
func (h *Hierarchy) downgradeL1(core int, lineNum uint64) {
	if line := h.l1d[core].arr.Lookup(lineNum); line != nil {
		line.State = uint8(coherence.Shared)
		line.Dirty = false
	}
}
