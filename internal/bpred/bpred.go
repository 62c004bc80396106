// Package bpred implements the branch prediction machinery of the simulated
// core: a tournament direction predictor (local two-bit counters and a
// gshare-style global predictor arbitrated by a chooser), a branch target
// buffer for indirect jumps, and a return address stack.
//
// Prediction happens at fetch along the speculative path, so all predictor
// speculation state (global history, RAS) is checkpointable: the core takes
// a Snapshot at every predicted branch and Restores it when the branch turns
// out to be mispredicted. A snapshot is plain data: the RAS copy it needs
// lives in a ring the predictor owns. Counter tables and the BTB are trained
// at retirement only, so wrong-path instructions never pollute them.
package bpred

// Config sizes the predictor structures. The defaults follow Table IV of
// the paper: tournament predictor, 4096 BTB entries, 16 RAS entries.
type Config struct {
	LocalBits  uint // log2 of local predictor entries
	GlobalBits uint // log2 of global (gshare) predictor entries
	ChoiceBits uint // log2 of chooser entries
	BTBEntries int
	RASEntries int
}

// DefaultConfig mirrors the simulated architecture of the paper.
func DefaultConfig() Config {
	return Config{
		LocalBits:  12,
		GlobalBits: 12,
		ChoiceBits: 12,
		BTBEntries: 4096,
		RASEntries: 16,
	}
}

// Predictor is the per-core branch prediction unit.
type Predictor struct {
	cfg    Config
	local  []uint8 // 2-bit saturating counters indexed by PC
	global []uint8 // 2-bit counters indexed by PC ^ history
	choice []uint8 // 2-bit chooser: >=2 selects global
	// btb is nil until the first TrainTarget, which no run without an
	// indirect jump reaches.
	btb    []btbEntry
	ghr    uint64 // speculative global history (youngest outcome in bit 0)
	ras    []int
	rasTop int // index of next push slot
	// copies is a ring of RAS copies, len(ras) ints each, that snapshots
	// name by index. Snapshots taken with no push in between share one
	// copy; a pop only moves rasTop, which each snapshot carries itself.
	// The ring grows on demand to maxCopies copies. next is the copy the
	// next snapshot after a push takes, and cur the copy ras equals, or -1
	// after a push.
	copies    []int
	maxCopies int
	next, cur int32

	// Stats.
	CondPredicts   uint64
	CondMispredics uint64
	BTBLookups     uint64
	BTBMisses      uint64
}

type btbEntry struct {
	pc     int
	target int
	valid  bool
}

// New builds a predictor with all counters weakly not-taken. inFlight is
// the most snapshots its user holds at once (a core's ROB plus its fetch
// buffer); the RAS ring keeps one copy more.
func New(cfg Config, inFlight int) *Predictor {
	if cfg.BTBEntries <= 0 || cfg.RASEntries <= 0 || inFlight <= 0 {
		panic("bpred: BTB, RAS and snapshot counts must be positive")
	}
	return &Predictor{
		cfg:       cfg,
		local:     make([]uint8, 1<<cfg.LocalBits),
		global:    make([]uint8, 1<<cfg.GlobalBits),
		choice:    make([]uint8, 1<<cfg.ChoiceBits),
		ras:       make([]int, cfg.RASEntries),
		maxCopies: inFlight + 1,
		cur:       -1,
	}
}

// State is a checkpoint of the predictor's speculative state. It names its
// RAS copy by index in the predictor's ring, so it holds no pointer.
type State struct {
	ghr    uint64
	rasTop int32
	copy   int32
}

// Snapshot captures the speculative state (history and RAS) so that it can
// be restored after a squash. Snapshots taken with no push in between share
// one RAS copy. A new copy takes the ring's next slot, which no live
// snapshot names: each copy from the oldest live snapshot's on belongs to a
// live snapshot (Restore drops those of squashed ones), and live snapshots
// are fewer than the ring's slots.
func (p *Predictor) Snapshot() State {
	if p.cur < 0 {
		n := len(p.ras)
		if at := int(p.next) * n; at < len(p.copies) {
			copy(p.copies[at:at+n], p.ras)
		} else {
			p.copies = append(p.copies, p.ras...)
		}
		p.cur = p.next
		p.next = p.after(p.next)
	}
	return State{ghr: p.ghr, rasTop: int32(p.rasTop), copy: p.cur}
}

// after returns the ring slot after i.
func (p *Predictor) after(i int32) int32 {
	if i++; int(i) == p.maxCopies {
		return 0
	}
	return i
}

// Peek returns the state Snapshot would without taking a RAS copy: after
// a push it names none. It is for audits that compare the predictor's
// state across cycles and must never be restored.
func (p *Predictor) Peek() State {
	return State{ghr: p.ghr, rasTop: int32(p.rasTop), copy: p.cur}
}

// GHR returns the global history captured in the snapshot; the core trains
// the direction tables at retirement with the history that was live when
// the branch predicted.
func (s State) GHR() uint64 { return s.ghr }

// Restore rewinds speculative state to a previously captured snapshot. Every
// snapshot taken after s belongs to an instruction the restore squashes, so
// the ring rewinds too: the next copy goes to the slot after s's.
func (p *Predictor) Restore(s State) {
	p.ghr = s.ghr
	copy(p.ras, p.copies[int(s.copy)*len(p.ras):])
	p.rasTop = int(s.rasTop)
	p.cur = s.copy
	p.next = p.after(s.copy)
}

func (p *Predictor) localIdx(pc int) int {
	return pc & ((1 << p.cfg.LocalBits) - 1)
}

func (p *Predictor) globalIdx(pc int) int {
	return (pc ^ int(p.ghr)) & ((1 << p.cfg.GlobalBits) - 1)
}

func (p *Predictor) globalIdxAt(pc int, ghr uint64) int {
	return (pc ^ int(ghr)) & ((1 << p.cfg.GlobalBits) - 1)
}

func (p *Predictor) choiceIdx(pc int) int {
	return pc & ((1 << p.cfg.ChoiceBits) - 1)
}

func taken(counter uint8) bool { return counter >= 2 }

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// PredictCond predicts the direction of the conditional branch at pc and
// speculatively updates the global history with the prediction.
func (p *Predictor) PredictCond(pc int) bool {
	p.CondPredicts++
	var pred bool
	if taken(p.choice[p.choiceIdx(pc)]) {
		pred = taken(p.global[p.globalIdx(pc)])
	} else {
		pred = taken(p.local[p.localIdx(pc)])
	}
	p.ghr <<= 1
	if pred {
		p.ghr |= 1
	}
	return pred
}

// PredictIndirect predicts the target of an indirect jump or return-less
// indirect call at pc via the BTB. ok is false on a BTB miss (the core then
// stalls fetch until the jump resolves, as a real front end would on a
// missing target).
func (p *Predictor) PredictIndirect(pc int) (target int, ok bool) {
	p.BTBLookups++
	if p.btb != nil {
		if e := p.btb[pc%len(p.btb)]; e.valid && e.pc == pc {
			return e.target, true
		}
	}
	p.BTBMisses++
	return 0, false
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(returnPC int) {
	p.ras[p.rasTop] = returnPC
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	p.cur = -1
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() int {
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return p.ras[p.rasTop]
}

// TrainCond updates the direction tables for a retired conditional branch.
// ghrAtPredict must be the global history value that was live when the
// branch was predicted (the core keeps it in the branch's snapshot).
func (p *Predictor) TrainCond(pc int, outcome bool, ghrAtPredict uint64) {
	li := p.localIdx(pc)
	gi := p.globalIdxAt(pc, ghrAtPredict)
	ci := p.choiceIdx(pc)
	localRight := taken(p.local[li]) == outcome
	globalRight := taken(p.global[gi]) == outcome
	if localRight != globalRight {
		p.choice[ci] = bump(p.choice[ci], globalRight)
	}
	p.local[li] = bump(p.local[li], outcome)
	p.global[gi] = bump(p.global[gi], outcome)
}

// TrainTarget installs the resolved target of an indirect jump in the BTB.
func (p *Predictor) TrainTarget(pc, target int) {
	if p.btb == nil {
		p.btb = make([]btbEntry, p.cfg.BTBEntries)
	}
	p.btb[pc%len(p.btb)] = btbEntry{pc: pc, target: target, valid: true}
}

// NoteMisprediction counts a resolved conditional misprediction (for stats).
func (p *Predictor) NoteMisprediction() { p.CondMispredics++ }

// FixupHistory corrects the youngest speculative history bit after a
// conditional misprediction: the core restores the snapshot taken at the
// branch and then records the actual outcome.
func (p *Predictor) FixupHistory(outcome bool) {
	p.ghr <<= 1
	if outcome {
		p.ghr |= 1
	}
}
