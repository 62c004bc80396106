package memsys

import (
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
// queued behind it in arrival order, and whether a clflush reached the line
// while it was held (see FlushLine), which bankRelease applies again.
type hold struct {
	queue   []*txn
	reflush bool
}

// txn is a transaction queued at a bank.
type txn struct {
	kind     coherence.ReqKind
	core     int
	lineNum  uint64
	req      Request // original request for demand transactions
	isDemand bool
	isIFetch bool
	dirty    bool // PutM: data differs from memory
}

func newBank(id int, cfg config.Machine) *bank {
	return &bank{
		id:   id,
		arr:  cache.NewArray(cfg.L2.Sets(cfg.LineSize), cfg.L2.Ways),
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
	arrive := h.mesh.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, req.Type.trafficClass())
	tx := &txn{kind: kind, core: req.Core, lineNum: lineNum, req: req, isDemand: true}
	h.at(arrive, func() { h.bankEnqueue(h.bank[home], tx) })
}

// sendIFetchToBank routes an instruction miss to the home bank.
func (h *Hierarchy) sendIFetchToBank(req Request, lineNum uint64) {
	home := h.homeBank(lineNum)
	arrive := h.mesh.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, stats.TrafficFetch)
	tx := &txn{kind: coherence.GetS, core: req.Core, lineNum: lineNum, req: req, isIFetch: true}
	h.at(arrive, func() { h.bankEnqueue(h.bank[home], tx) })
}

// bankEnqueue admits a transaction, queueing it if the line is held.
func (h *Hierarchy) bankEnqueue(b *bank, tx *txn) {
	if hd, ok := b.held[tx.lineNum]; ok {
		hd.queue = append(hd.queue, tx)
		b.held[tx.lineNum] = hd
		return
	}
	b.held[tx.lineNum] = hold{}
	h.bankProcess(b, tx)
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
	if len(hd.queue) == 0 {
		delete(b.held, lineNum)
		return
	}
	b.held[lineNum] = hold{queue: hd.queue[1:]}
	h.bankProcess(b, hd.queue[0])
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

// bankProcess runs one locked transaction to completion, computing its
// timeline from NoC and DRAM latencies and scheduling the response.
func (h *Hierarchy) bankProcess(b *bank, tx *txn) {
	if tx.isIFetch {
		h.bankProcessIFetch(b, tx)
		return
	}
	if !tx.isDemand {
		h.bankProcessPut(b, tx)
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
		if h.st != nil {
			h.st.LLCMisses++
		}
		if valexp && h.cfg.LLCSBEnabled &&
			h.sb[tx.core].lookup(tx.req.LQIdx, tx.lineNum, tx.req.Epoch) {
			// Served by the requester's LLC-SB: no DRAM access (§V-F).
			servedSB = true
			if h.st != nil {
				h.st.Cores[tx.core].LLCSBHits++
			}
		} else {
			if valexp && h.st != nil {
				h.st.Cores[tx.core].LLCSBMisses++
			}
			t = h.mesh.dram.read(t, h.cfg.DataMsgBytes)
			if h.st != nil {
				h.st.AddTraffic(class, uint64(h.cfg.DataMsgBytes))
			}
		}
		// Any non-speculative memory fetch purges the line from every
		// core's LLC-SB (§VI-C).
		for _, sb := range h.sb {
			sb.invalidateLine(tx.lineNum)
		}
		// Install in the LLC (inclusive), possibly recalling a victim.
		h.llcInstall(b, tx.lineNum, t)
		respArrive = h.mesh.send(t, b.id, tx.core, h.cfg.DataMsgBytes, class)

	case dec.FromOwner:
		if h.st != nil {
			h.st.LLCHits++
		}
		b.arr.Touch(tx.lineNum)
		tf := h.mesh.send(t, b.id, dec.Owner, h.cfg.CtrlMsgBytes, class)
		ownerLine := h.l1d[dec.Owner].arr.Lookup(tx.lineNum)
		if ownerLine != nil {
			wasDirty := ownerLine.Dirty
			if tx.kind == coherence.GetS {
				h.at(tf, func() { h.downgradeL1(dec.Owner, tx.lineNum) })
				if dec.OwnerWriteback {
					h.mesh.send(tf, dec.Owner, b.id, h.cfg.DataMsgBytes, stats.TrafficWriteback)
					if wasDirty {
						line := b.arr.Lookup(tx.lineNum)
						if line != nil {
							line.Dirty = true
						}
					}
				}
			} else { // GetX forward: the forward acts as the invalidation.
				h.at(tf, func() { h.invalidateL1(dec.Owner, tx.lineNum) })
			}
			respArrive = h.mesh.send(tf, dec.Owner, tx.core, h.cfg.DataMsgBytes, class)
		} else {
			// The owner's eviction raced ahead of its Put: serve from LLC.
			respArrive = h.mesh.send(t, b.id, tx.core, h.cfg.DataMsgBytes, class)
		}

	default:
		if h.st != nil {
			h.st.LLCHits++
		}
		b.arr.Touch(tx.lineNum)
		respArrive = h.mesh.send(t, b.id, tx.core, h.cfg.DataMsgBytes, class)
	}

	// Invalidate sharers; the directory collects acks before the requester
	// may proceed (the response is held until the last ack).
	acksDone := respArrive
	for _, c := range dec.Invalidate {
		if dec.FromOwner && c == dec.Owner {
			continue // the forward already invalidated the owner
		}
		core := c
		tinv := h.mesh.send(t, b.id, core, h.cfg.CtrlMsgBytes, class)
		h.at(tinv, func() { h.invalidateL1(core, tx.lineNum) })
		tack := h.mesh.send(tinv, core, b.id, h.cfg.CtrlMsgBytes, class)
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

	done := acksDone
	req := tx.req
	c := h.l1d[tx.core]
	h.at(done, func() {
		h.fillL1(c, req, tx.lineNum, dec.Grant, servedSB)
		h.bankRelease(b, tx.lineNum)
	})
}

// bankProcessPut applies an eviction notification.
func (h *Hierarchy) bankProcessPut(b *bank, tx *txn) {
	t := h.bankAccess(b)
	line := b.arr.Lookup(tx.lineNum)
	if line != nil {
		_, newEntry := coherence.Decide(dirEntryOf(line), tx.kind, tx.core)
		storeDirEntry(line, newEntry)
		if tx.dirty {
			line.Dirty = true
		}
	}
	h.at(t, func() { h.bankRelease(b, tx.lineNum) })
}

// bankProcessIFetch serves an instruction line: read-only, no directory
// tracking, but resident in the LLC like any other line.
func (h *Hierarchy) bankProcessIFetch(b *bank, tx *txn) {
	t := h.bankAccess(b)
	line := b.arr.Lookup(tx.lineNum)
	if line == nil {
		if h.st != nil {
			h.st.LLCMisses++
		}
		t = h.mesh.dram.read(t, h.cfg.DataMsgBytes)
		if h.st != nil {
			h.st.AddTraffic(stats.TrafficFetch, uint64(h.cfg.DataMsgBytes))
		}
		h.llcInstall(b, tx.lineNum, t)
	} else {
		if h.st != nil {
			h.st.LLCHits++
		}
		b.arr.Touch(tx.lineNum)
	}
	respArrive := h.mesh.send(t, b.id, tx.core, h.cfg.DataMsgBytes, stats.TrafficFetch)
	req := tx.req
	c := h.l1i[tx.core]
	h.at(respArrive, func() {
		h.fillL1(c, req, tx.lineNum, coherence.Shared, false)
		h.bankRelease(b, tx.lineNum)
	})
}

// llcInstall inserts a fetched line into the LLC, recalling (invalidating
// from L1s, writing back if dirty) any victim. Inclusive-LLC recalls run in
// the background and do not extend the requester's critical path.
func (h *Hierarchy) llcInstall(b *bank, lineNum uint64, t uint64) {
	_, victim, hadVictim := b.arr.Insert(lineNum)
	if !hadVictim {
		return
	}
	targets, owned := coherence.Recall(dirEntryOf(&victim))
	for _, c := range targets {
		core := c
		vline := victim.LineNum
		// Track the in-flight recall so the coherence invariant checker can
		// exempt this line from inclusivity checks until the L1 copy is gone.
		h.recallPending[vline]++
		tinv := h.mesh.send(t, b.id, core, h.cfg.CtrlMsgBytes, stats.TrafficWriteback)
		h.at(tinv, func() {
			h.invalidateL1(core, vline)
			h.l1i[core].arr.Invalidate(vline)
			if h.recallPending[vline]--; h.recallPending[vline] == 0 {
				delete(h.recallPending, vline)
			}
		})
	}
	if victim.Dirty || owned {
		h.mesh.dram.write(t, h.cfg.DataMsgBytes)
		if h.st != nil {
			h.st.AddTraffic(stats.TrafficWriteback, uint64(h.cfg.DataMsgBytes))
		}
	}
}

// sendIFetchSpecToBank serves an invisible instruction fetch: LLC probe
// without replacement update, DRAM read without install on a miss.
func (h *Hierarchy) sendIFetchSpecToBank(req Request, lineNum uint64) {
	home := h.homeBank(lineNum)
	arrive := h.mesh.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, stats.TrafficFetch)
	h.at(arrive, func() {
		b := h.bank[home]
		t := h.bankAccess(b)
		if b.arr.Lookup(lineNum) == nil { // no Touch either way
			t = h.mesh.dram.read(t, h.cfg.DataMsgBytes)
			if h.st != nil {
				h.st.AddTraffic(stats.TrafficFetch, uint64(h.cfg.DataMsgBytes))
			}
		}
		respArrive := h.mesh.send(t, home, req.Core, h.cfg.DataMsgBytes, stats.TrafficFetch)
		h.deliverAt(respArrive, req.Core, req.response())
	})
}

// sendSpecToBank routes a Spec-GetS to the home bank.
func (h *Hierarchy) sendSpecToBank(req Request, lineNum uint64) {
	home := h.homeBank(lineNum)
	arrive := h.mesh.send(h.now, req.Core, home, h.cfg.CtrlMsgBytes, stats.TrafficSpecLoad)
	h.at(arrive, func() { h.specProcess(req, lineNum) })
}

// specProcess serves a Spec-GetS at the directory. It is NOT ordered with
// respect to other transactions (§VI-E1): a busy line bounces the request
// back to the requester, which retries; directory, LLC replacement, and L1
// states are never modified.
func (h *Hierarchy) specProcess(req Request, lineNum uint64) {
	b := h.bank[h.homeBank(lineNum)]
	if _, held := b.held[lineNum]; held {
		h.specBounce(req, lineNum, b.id)
		return
	}
	t := h.bankAccess(b)
	line := b.arr.Lookup(lineNum) // no Touch: replacement state untouched
	dec, _ := coherence.Decide(dirEntryOf(line), coherence.SpecGetS, req.Core)
	switch {
	case dec.FromMemory:
		t = h.mesh.dram.read(t, h.cfg.DataMsgBytes)
		if h.st != nil {
			h.st.AddTraffic(stats.TrafficSpecLoad, uint64(h.cfg.DataMsgBytes))
		}
		// Fill the requester's LLC-SB on the data's way back (§VI-C),
		// unless a newer epoch already claimed the entry.
		if h.cfg.LLCSBEnabled {
			h.sb[req.Core].fill(req.LQIdx, lineNum, req.Epoch)
		}
		h.specRespond(req, b.id, t)
	case dec.FromOwner:
		tf := h.mesh.send(t, b.id, dec.Owner, h.cfg.CtrlMsgBytes, stats.TrafficSpecLoad)
		owner := dec.Owner
		h.at(tf, func() {
			if h.l1d[owner].arr.Lookup(lineNum) != nil {
				// Owner still has the line: reply without any state change.
				h.specRespondFrom(req, owner)
			} else {
				// Ownership moved while the forward was in flight: bounce.
				h.specBounce(req, lineNum, owner)
			}
		})
	default:
		h.specRespond(req, b.id, t)
	}
}

// specBounce returns a Spec-GetS to the requester unserved; the core
// decides whether to retry (it will not if the USL has been squashed).
func (h *Hierarchy) specBounce(req Request, lineNum uint64, from int) {
	tb := h.mesh.send(h.now, from, req.Core, h.cfg.CtrlMsgBytes, stats.TrafficSpecLoad)
	resp := req.response()
	resp.Bounced = true
	h.deliverAt(tb, req.Core, resp)
}

// specRespond sends Spec-GetS data from node src at cycle t.
func (h *Hierarchy) specRespond(req Request, src int, t uint64) {
	arrive := h.mesh.send(t, src, req.Core, h.cfg.DataMsgBytes, stats.TrafficSpecLoad)
	h.deliverAt(arrive, req.Core, req.response())
}

// specRespondFrom sends Spec-GetS data from an owner core at the current
// cycle.
func (h *Hierarchy) specRespondFrom(req Request, owner int) {
	arrive := h.mesh.send(h.now, owner, req.Core, h.cfg.DataMsgBytes, stats.TrafficSpecLoad)
	h.deliverAt(arrive, req.Core, req.response())
}
