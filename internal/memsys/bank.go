package memsys

import (
	"math/bits"

	"invisispec/internal/cache"
	"invisispec/internal/coherence"
	"invisispec/internal/config"
	"invisispec/internal/stats"
)

// bank is one LLC bank with its slice of the directory (embedded in the LLC
// lines' Sharers/Owner fields). The directory is blocking: one transaction
// per line at a time; others queue in arrival order. A transaction holds the
// line from processing start until its response has been delivered, which
// removes the need for transient requester states.
type bank struct {
	id       int
	arr      *cache.Array
	held     map[uint64]hold // the lines a transaction holds
	portFree uint64
}

// hold is a line a transaction holds at its home bank: the transactions
// queued behind it in arrival order, chained through the pool from head to
// tail (noTxn when none), and whether a clflush reached the line while it
// was held (see FlushLine), which bankRelease applies again.
type hold struct {
	head, tail int32
	reflush    bool
}

// txn is a transaction on its way to, queued at, or held by its home bank.
// It lives by value in the hierarchy's pool, which events and queues name
// by index.
type txn struct {
	kind     coherence.ReqKind
	core     int
	lineNum  uint64
	req      Request // original request for demand and Spec-GetS transactions
	isDemand bool
	isIFetch bool
	dirty    bool // PutM: data differs from memory
	// Set when the bank processes a demand transaction, for its fill: the
	// state the L1 is granted, and whether the requester's LLC-SB served
	// the data.
	grant    coherence.State
	servedSB bool
	// next is the transaction queued behind this one at its bank, or, for
	// a free entry, the next free entry (noTxn ends either chain).
	next int32
}

// noTxn is the index of no transaction.
const noTxn = -1

// newTxn stores tx in the pool and returns its index. It may grow the pool,
// so a caller must not keep a *txn across it.
func (h *Hierarchy) newTxn(tx txn) int32 {
	tx.next = noTxn
	if i := h.freeTxn; i != noTxn {
		h.freeTxn = h.txns[i].next
		h.txns[i] = tx
		return i
	}
	h.txns = append(h.txns, tx)
	return int32(len(h.txns) - 1)
}

// releaseTxn returns transaction i's entry to the pool.
func (h *Hierarchy) releaseTxn(i int32) {
	h.txns[i] = txn{next: h.freeTxn}
	h.freeTxn = i
}

func newBank(id int, cfg config.Machine) *bank {
	return &bank{
		id:   id,
		arr:  cache.NewArray(cfg.L2.Sets(), cfg.L2.Ways),
		held: make(map[uint64]hold),
	}
}

func dirEntryOf(line *cache.Line) coherence.DirEntry {
	if line == nil {
		return coherence.DirEntry{Owner: coherence.NoOwner}
	}
	return coherence.DirEntry{Present: true, Sharers: line.Sharers, Owner: int(line.Owner)}
}

func storeDirEntry(line *cache.Line, e coherence.DirEntry) {
	line.Sharers = e.Sharers
	line.Owner = int16(e.Owner)
}

// sendToBank routes a demand GetS/GetX to the line's home bank.
func (h *Hierarchy) sendToBank(req Request, lineNum uint64, kind coherence.ReqKind) {
	home := h.homeBank(lineNum)
	arrive := h.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, req.Type.trafficClass())
	tx := h.newTxn(txn{kind: kind, core: req.Core, lineNum: lineNum, req: req, isDemand: true})
	h.schedule(event{cycle: arrive, kind: evEnqueue, tx: tx})
}

// sendIFetchToBank routes an instruction miss to the home bank.
func (h *Hierarchy) sendIFetchToBank(req Request, lineNum uint64) {
	home := h.homeBank(lineNum)
	arrive := h.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, stats.TrafficFetch)
	tx := h.newTxn(txn{kind: coherence.GetS, core: req.Core, lineNum: lineNum, req: req, isIFetch: true})
	h.schedule(event{cycle: arrive, kind: evEnqueue, tx: tx})
}

// bankEnqueue admits transaction i at its home bank, queueing it if the
// line is held.
func (h *Hierarchy) bankEnqueue(i int32) {
	lineNum := h.txns[i].lineNum
	b := h.bank[h.homeBank(lineNum)]
	if hd, ok := b.held[lineNum]; ok {
		if hd.tail == noTxn {
			hd.head = i
		} else {
			h.txns[hd.tail].next = i
		}
		hd.tail = i
		b.held[lineNum] = hd
		return
	}
	b.held[lineNum] = hold{head: noTxn, tail: noTxn}
	h.bankProcess(b, i)
}

// bankRelease ends the finishing transaction's hold on a line and starts
// the next queued transaction. A clflush that reached the line while the
// finishing transaction held it is applied again first, so the copy the
// transaction's fill installed goes too.
func (h *Hierarchy) bankRelease(b *bank, lineNum uint64) {
	hd := b.held[lineNum]
	if hd.reflush {
		h.flushLine(lineNum)
	}
	next := hd.head
	if next == noTxn {
		delete(b.held, lineNum)
		return
	}
	hd = hold{head: h.txns[next].next, tail: hd.tail}
	if hd.head == noTxn {
		hd.tail = noTxn
	}
	b.held[lineNum] = hd
	h.bankProcess(b, next)
}

// bankAccess serializes transactions through the bank's single port and
// returns the cycle at which the bank lookup has completed.
func (h *Hierarchy) bankAccess(b *bank) uint64 {
	start := h.now
	if b.portFree > start {
		start = b.portFree
	}
	b.portFree = start + 1
	return start + uint64(h.cfg.L2.LatencyRT)
}

// bankProcess runs locked transaction i to completion, computing its
// timeline from NoC and DRAM latencies and scheduling the response.
func (h *Hierarchy) bankProcess(b *bank, i int32) {
	tx := &h.txns[i] // nothing below adds to the pool
	if tx.isIFetch {
		h.bankProcessIFetch(b, i)
		return
	}
	if !tx.isDemand {
		h.bankProcessPut(b, i)
		return
	}
	t := h.bankAccess(b)
	class := tx.req.Type.trafficClass()
	line := b.arr.Lookup(tx.lineNum)
	dec, newEntry := coherence.Decide(dirEntryOf(line), tx.kind, tx.core)
	servedSB := false
	var respArrive uint64

	valexp := tx.req.Type == Validate || tx.req.Type == Expose
	switch {
	case dec.FromMemory:
		h.st.LLCMisses++
		if valexp && h.cfg.LLCSBEnabled &&
			h.sb[tx.core].lookup(tx.req.LQIdx, tx.lineNum, tx.req.Epoch) {
			// Served by the requester's LLC-SB: no DRAM access (§V-F).
			servedSB = true
			h.st.Cores[tx.core].LLCSBHits++
		} else {
			if valexp {
				h.st.Cores[tx.core].LLCSBMisses++
			}
			t = h.dramRead(t, class)
		}
		// Any non-speculative memory fetch purges the line from every
		// core's LLC-SB (§VI-C).
		for _, sb := range h.sb {
			sb.invalidateLine(tx.lineNum)
		}
		// Install in the LLC (inclusive), possibly recalling a victim.
		h.llcInstall(b, tx.lineNum, t)
		respArrive = h.send(t, b.id, tx.core, h.cfg.DataMsgBytes, class)

	case dec.FromOwner:
		h.st.LLCHits++
		b.arr.Touch(tx.lineNum)
		tf := h.send(t, b.id, dec.Owner, h.cfg.CtrlMsgBytes, class)
		ownerLine := h.l1d[dec.Owner].arr.Lookup(tx.lineNum)
		if ownerLine != nil {
			wasDirty := ownerLine.Dirty
			if tx.kind == coherence.GetS {
				h.schedule(event{cycle: tf, kind: evDowngrade, core: int32(dec.Owner), line: tx.lineNum})
				if dec.OwnerWriteback {
					h.send(tf, dec.Owner, b.id, h.cfg.DataMsgBytes, stats.TrafficWriteback)
					if wasDirty {
						line := b.arr.Lookup(tx.lineNum)
						if line != nil {
							line.Dirty = true
						}
					}
				}
			} else { // GetX forward: the forward acts as the invalidation.
				h.schedule(event{cycle: tf, kind: evInvalidate, core: int32(dec.Owner), line: tx.lineNum})
			}
			respArrive = h.send(tf, dec.Owner, tx.core, h.cfg.DataMsgBytes, class)
		} else {
			// The owner's eviction raced ahead of its Put: serve from LLC.
			respArrive = h.send(t, b.id, tx.core, h.cfg.DataMsgBytes, class)
		}

	default:
		h.st.LLCHits++
		b.arr.Touch(tx.lineNum)
		respArrive = h.send(t, b.id, tx.core, h.cfg.DataMsgBytes, class)
	}

	// Invalidate sharers, in ascending core order; the directory collects
	// acks before the requester may proceed (the response is held until
	// the last ack).
	acksDone := respArrive
	for m := dec.Invalidate; m != 0; m &= m - 1 {
		core := bits.TrailingZeros64(m)
		if dec.FromOwner && core == dec.Owner {
			continue // the forward already invalidated the owner
		}
		tinv := h.send(t, b.id, core, h.cfg.CtrlMsgBytes, class)
		h.schedule(event{cycle: tinv, kind: evInvalidate, core: int32(core), line: tx.lineNum})
		tack := h.send(tinv, core, b.id, h.cfg.CtrlMsgBytes, class)
		if tack > acksDone {
			acksDone = tack
		}
	}

	// Commit the directory update.
	line = b.arr.Lookup(tx.lineNum)
	if line == nil {
		panic("memsys: demand transaction completed without an LLC line")
	}
	storeDirEntry(line, newEntry)

	tx.grant, tx.servedSB = dec.Grant, servedSB
	h.schedule(event{cycle: acksDone, kind: evFill, tx: i})
}

// bankProcessPut applies eviction notification i, which ends here.
func (h *Hierarchy) bankProcessPut(b *bank, i int32) {
	tx := h.txns[i]
	h.releaseTxn(i)
	t := h.bankAccess(b)
	line := b.arr.Lookup(tx.lineNum)
	if line != nil {
		_, newEntry := coherence.Decide(dirEntryOf(line), tx.kind, tx.core)
		storeDirEntry(line, newEntry)
		if tx.dirty {
			line.Dirty = true
		}
	}
	h.schedule(event{cycle: t, kind: evRelease, line: tx.lineNum})
}

// bankProcessIFetch serves instruction line fetch i: read-only, no
// directory tracking, but resident in the LLC like any other line.
func (h *Hierarchy) bankProcessIFetch(b *bank, i int32) {
	tx := &h.txns[i] // nothing below adds to the pool
	t := h.bankAccess(b)
	line := b.arr.Lookup(tx.lineNum)
	if line == nil {
		h.st.LLCMisses++
		t = h.dramRead(t, stats.TrafficFetch)
		h.llcInstall(b, tx.lineNum, t)
	} else {
		h.st.LLCHits++
		b.arr.Touch(tx.lineNum)
	}
	respArrive := h.send(t, b.id, tx.core, h.cfg.DataMsgBytes, stats.TrafficFetch)
	tx.grant = coherence.Shared
	h.schedule(event{cycle: respArrive, kind: evFill, tx: i})
}

// llcInstall inserts a fetched line into the LLC, recalling (invalidating
// from L1s, writing back if dirty) any victim. Inclusive-LLC recalls run in
// the background and do not extend the requester's critical path.
func (h *Hierarchy) llcInstall(b *bank, lineNum uint64, t uint64) {
	_, victim, hadVictim := b.arr.Insert(lineNum)
	if !hadVictim {
		return
	}
	// Invalidate every L1 copy, the sharers in ascending core order and
	// then the owner.
	sharers, owner, owned := coherence.Recall(dirEntryOf(&victim))
	for m := sharers; m != 0; m &= m - 1 {
		h.recall(b, bits.TrailingZeros64(m), victim.LineNum, t)
	}
	if owner != coherence.NoOwner {
		h.recall(b, owner, victim.LineNum, t)
	}
	if victim.Dirty || owned {
		h.dramWrite(t)
		h.st.AddTraffic(stats.TrafficWriteback, uint64(h.cfg.DataMsgBytes))
	}
}

// recall sends an inclusive-LLC recall of line from bank b to core at cycle
// t. The in-flight recall is tracked so the coherence invariant checker can
// exempt the line from inclusivity checks until the L1 copy is gone.
func (h *Hierarchy) recall(b *bank, core int, line, t uint64) {
	h.recallPending[line]++
	tinv := h.send(t, b.id, core, h.cfg.CtrlMsgBytes, stats.TrafficWriteback)
	h.schedule(event{cycle: tinv, kind: evRecall, core: int32(core), line: line})
}

// sendIFetchSpecToBank routes an invisible instruction fetch to the home
// bank.
func (h *Hierarchy) sendIFetchSpecToBank(req Request, lineNum uint64) {
	home := h.homeBank(lineNum)
	arrive := h.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, stats.TrafficFetch)
	h.schedule(event{cycle: arrive, kind: evIFetchSpec, core: int32(req.Core), resp: req.response()})
}

// ifetchSpecProcess serves an invisible instruction fetch for core, which
// resp answers: LLC probe without replacement update, DRAM read without
// install on a miss.
func (h *Hierarchy) ifetchSpecProcess(core int, resp Response) {
	lineNum := h.LineOf(resp.Addr)
	home := h.homeBank(lineNum)
	b := h.bank[home]
	t := h.bankAccess(b)
	if b.arr.Lookup(lineNum) == nil { // no Touch either way
		t = h.dramRead(t, stats.TrafficFetch)
	}
	respArrive := h.send(t, home, core, h.cfg.DataMsgBytes, stats.TrafficFetch)
	h.deliverAt(respArrive, core, resp)
}

// sendSpecToBank routes a Spec-GetS to the home bank.
func (h *Hierarchy) sendSpecToBank(req Request, lineNum uint64) {
	home := h.homeBank(lineNum)
	arrive := h.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, stats.TrafficSpecLoad)
	tx := h.newTxn(txn{kind: coherence.SpecGetS, core: req.Core, lineNum: lineNum, req: req})
	h.schedule(event{cycle: arrive, kind: evSpec, tx: tx})
}

// specProcess serves Spec-GetS i at the directory. It is NOT ordered with
// respect to other transactions (§VI-E1): a busy line bounces the request
// back to the requester, which retries; directory, LLC replacement, and L1
// states are never modified. The transaction ends here unless it is
// forwarded to an owner.
func (h *Hierarchy) specProcess(i int32) {
	req, lineNum := h.txns[i].req, h.txns[i].lineNum
	b := h.bank[h.homeBank(lineNum)]
	if _, held := b.held[lineNum]; held {
		h.releaseTxn(i)
		h.specBounce(req, b.id)
		return
	}
	t := h.bankAccess(b)
	line := b.arr.Lookup(lineNum) // no Touch: replacement state untouched
	dec, _ := coherence.Decide(dirEntryOf(line), coherence.SpecGetS, req.Core)
	if dec.FromOwner {
		tf := h.send(t, b.id, dec.Owner, h.cfg.CtrlMsgBytes, stats.TrafficSpecLoad)
		h.schedule(event{cycle: tf, kind: evSpecForward, tx: i, core: int32(dec.Owner)})
		return
	}
	h.releaseTxn(i)
	if dec.FromMemory {
		t = h.dramRead(t, stats.TrafficSpecLoad)
		// Fill the requester's LLC-SB on the data's way back (§VI-C),
		// unless a newer epoch already claimed the entry.
		if h.cfg.LLCSBEnabled {
			h.sb[req.Core].fill(req.LQIdx, lineNum, req.Epoch)
		}
	}
	h.specRespond(req, b.id, t)
}

// specForwarded answers Spec-GetS i, which its bank forwarded to owner.
func (h *Hierarchy) specForwarded(i int32, owner int) {
	req, lineNum := h.txns[i].req, h.txns[i].lineNum
	h.releaseTxn(i)
	if h.l1d[owner].arr.Lookup(lineNum) != nil {
		// Owner still has the line: reply without any state change.
		h.specRespond(req, owner, h.now)
	} else {
		// Ownership moved while the forward was in flight: bounce.
		h.specBounce(req, owner)
	}
}

// specBounce returns a Spec-GetS to the requester unserved; the core
// decides whether to retry (it will not if the USL has been squashed).
func (h *Hierarchy) specBounce(req Request, from int) {
	tb := h.send(h.now, from, req.Core, h.cfg.CtrlMsgBytes, stats.TrafficSpecLoad)
	resp := req.response()
	resp.Bounced = true
	h.deliverAt(tb, req.Core, resp)
}

// specRespond sends Spec-GetS data from node src at cycle t.
func (h *Hierarchy) specRespond(req Request, src int, t uint64) {
	arrive := h.send(t, src, req.Core, h.cfg.DataMsgBytes, stats.TrafficSpecLoad)
	h.deliverAt(arrive, req.Core, req.response())
}
