// This file holds the attack classes beyond Spectre v1 and Meltdown: the
// Spectre v2 (BTB poisoning) template, the RSB/return-based variant, the
// speculative store bypass through the LSQ forwarding path, and the
// cross-core LLC-SB contention pair targeting the speculative buffer.
// Each is parameterized by the same SpectreParams block the v1 templates
// use (the leakage corpus and the feedback-driven search mutate these
// axes), with per-class validation narrowing the ranges where the
// microarchitecture narrows them (BTB training depth, RAS capacity).
package workload

import (
	"fmt"
	"sort"
	"strings"

	"invisispec/internal/isa"
)

// Memory layout of the new attack classes. Kept clear of the Spectre v1
// regions (A at 0x100000, bounds at 0x180000 with the straggler-drain
// lines at 0x190000, B at 0x200000, results at 0x300000, cross-thread
// mailbox at 0x380000).
const (
	// SpectreSlotAddr holds the indirect-dispatch target the v2 and RSB
	// victims load and jump through: the analogue of v1's bounds value as
	// the window-opener the attacker flushes.
	SpectreSlotAddr = 0x1a0000
	// SSBSlotBase is the base of the store-bypass slot lines, one
	// cache line per bypass round, each seeded with the secret byte that
	// the round's late-address store then overwrites with zero.
	SSBSlotBase = 0x1b0000
	// LLCSBCtrlBase is the LLC-SB contention pair's mailbox, one cache
	// line per flag (trained, go, ready) so the spin loops contend on
	// nothing but the flag they watch.
	LLCSBCtrlBase    = 0x3a0000
	llcsbCtrlTrained = LLCSBCtrlBase
	llcsbCtrlGo      = LLCSBCtrlBase + 128
	llcsbCtrlRdy     = LLCSBCtrlBase + 192
)

// ssbColdSentinel is the latency written into skipped probe-scan result
// slots: comfortably above the hot-line threshold at any realistic cold
// floor, yet close enough to the DRAM latency that it barely moves the
// distinguisher's noise estimate.
const ssbColdSentinel = 200

// validateClass merges the base geometry checks, the class's TrainRounds
// bound and its other violations into one error whose clauses are
// sorted, so a bad parameter set always produces the same deterministic
// message regardless of which check tripped first — search mutations fail
// fast and reproducibly. rounds says what TrainRounds counts in the class.
func (p SpectreParams) validateClass(class string, maxRounds int, rounds string, extra ...string) error {
	var errs []string
	if err := p.Validate(); err != nil {
		errs = append(errs, strings.TrimPrefix(err.Error(), "workload: "))
	}
	if p.TrainRounds < 1 || p.TrainRounds > maxRounds {
		errs = append(errs, fmt.Sprintf("TrainRounds %d outside [1,%d] (%s)", p.TrainRounds, maxRounds, rounds))
	}
	errs = append(errs, extra...)
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("workload: %s: %s", class, strings.Join(errs, "; "))
}

// ValidateBTB checks the parameters for the Spectre v2 template, where
// TrainRounds counts BTB training calls.
func (p SpectreParams) ValidateBTB() error {
	return p.validateClass("spectre-btb", MaxBTBRounds, "BTB training rounds")
}

// ValidateRSB checks the parameters for the return-based template, where
// TrainRounds is the nested CALL depth.
func (p SpectreParams) ValidateRSB() error {
	return p.validateClass("spectre-rsb", MaxRSBDepth, "nested call depth vs. RAS capacity")
}

// ValidateSSB checks the parameters for the store-bypass template, where
// TrainRounds is the number of bypass rounds (each with its own slot
// line). The class has no bounds value and no safe-annotation story, so
// the v1 control axes that toggle those are rejected rather than
// silently ignored — a spec the matrix cannot predict must not assemble.
func (p SpectreParams) ValidateSSB() error {
	var extra []string
	if !p.FlushBounds {
		extra = append(extra, "FlushBounds must be set (no bounds value exists; the control axis is FlushProbe)")
	}
	if p.Annotate {
		extra = append(extra, "Annotate unsupported (no victim loads to annotate)")
	}
	return p.validateClass("ssb", MaxSSBRounds, "bypass rounds", extra...)
}

// SpectreV2With assembles the same-thread Spectre variant-2 attack: the
// victim dispatches through a function pointer (an indirect jump whose
// target is loaded from memory), the attacker trains the BTB by calling
// the victim while the pointer names a secret-reading gadget, then
// re-points the pointer at a benign target and flushes it. The attack
// call's dispatch load goes to DRAM, the BTB still predicts the gadget,
// and the gadget transiently reads the secret and touches the
// secret-indexed probe line before the indirect jump resolves to the
// benign target and squashes it.
//
// FlushBounds here flushes the dispatch slot — the window-opener, exactly
// the role the bounds value plays in v1 — and FlushProbe keeps its v1
// meaning, so the corpus's control variants carry over unchanged.
func SpectreV2With(p SpectreParams) (*isa.Program, error) {
	if err := p.ValidateBTB(); err != nil {
		return nil, err
	}
	const (
		rTgt  = 12 // victim: loaded dispatch target
		rGad  = 25 // gadget entry index
		rBen  = 26 // benign entry index
		rTgt2 = 27 // victim: delayed dispatch target
	)
	b := isa.NewBuilder("spectre-v2")
	emitVictimData(b, p.Secret, false)
	b.Li(rA, SpectreABase).
		Li(rB, SpectreBBase).
		Li(rRes, SpectreResultsBase).
		Li(rSlot, SpectreSlotAddr).
		Li(rTen, 10)

	// Point the dispatch slot at the gadget and the access pointer at the
	// in-bounds byte A[0], then train: every call dispatches through the
	// slot and the BTB learns the gadget as the indirect target.
	b.LiLabel(rGad, "v2_gadget").
		St(8, rSlot, 0, rGad).
		Fence().
		Li(rSecPtr, SpectreABase).
		Li(rRound, uint64(p.TrainRounds))
	b.Label("train").
		Call(rLink, "v2_victim").
		AddI(rRound, rRound, -1).
		Bne(rRound, 0, "train")

	// Re-point the slot at the benign target. The BTB still predicts the
	// gadget: the victim's dispatch is only retrained at resolution, one
	// attack call from now.
	b.LiLabel(rBen, "v2_benign").
		St(8, rSlot, 0, rBen).
		Fence()

	// Warm the probe pages' D-TLB entries, drain wrong-path stragglers
	// from the mispredicted training-loop exit, then flush the attack
	// state.
	emitTLBWarm(b, p.region())
	emitStragglerDrain(b)
	if p.FlushBounds {
		b.Flush(rSlot, 0)
	}
	if p.FlushProbe {
		emitProbeFlush(b, p.region())
	}
	b.Fence()

	// The attack call: the access pointer now names the secret byte and
	// the dispatch load goes to DRAM, so the BTB-predicted gadget has a
	// ~190-cycle transient window.
	b.Li(rSecPtr, SpectreABase+SpectreSecretOffset).
		Call(rLink, "v2_victim").
		Fence()
	emitProbeScan(b, p.ProbeLines, 0, p.shift())
	b.Halt()

	// victim(): (*slot)() — load the dispatch target and jump through it.
	// The delayed copy keeps the indirect jump unresolved well past the
	// gadget's cold secret load even though the chain itself is cheap.
	b.Label("v2_victim").
		Ld(8, rTgt, rSlot, 0)
	emitLateCopy(b, rTgt2, rTgt)
	b.JmpI(rTgt2)

	// gadget: junk = B[stride * A[a]] — the v1 gadget body behind an
	// indirect dispatch instead of a bounds check.
	b.Label("v2_gadget")
	emitAccessTransmit(b, p.Annotate, rSecPtr, p.shift())
	b.Ret(rLink)
	b.Label("v2_benign").
		Ret(rLink)
	return b.Build()
}

// SpectreRSBWith assembles the return-based (RSB/ret2spec) attack: the
// program dives TrainRounds nested calls deep, and the innermost frame
// returns through a return address loaded from a flushed memory slot
// instead of its link register. The RAS — pushed by the call chain —
// predicts a return to the instruction after the innermost call, where
// the attacker has placed the secret-reading gadget; the actual return
// target is a benign landing pad that jumps straight to the timing scan.
// While the slot load crawls back from DRAM the gadget runs transiently,
// exactly the deep CALL/RET + RAS-checkpoint machinery PR 5 stressed.
//
// No training phase exists (the RAS mispredicts on the first attack);
// TrainRounds doubles as the nesting depth, giving the fuzzer a
// class-meaningful axis. FlushBounds flushes the return slot (the
// window-opener), FlushProbe keeps its v1 meaning.
func SpectreRSBWith(p SpectreParams) (*isa.Program, error) {
	if err := p.ValidateRSB(); err != nil {
		return nil, err
	}
	depth := p.TrainRounds
	const (
		rLand = 9  // landing-pad index
		rRet2 = 10 // victim: delayed return target
		rRet  = 12 // victim: loaded return target
	)
	b := isa.NewBuilder("spectre-rsb")
	emitVictimData(b, p.Secret, false)
	b.Li(rA, SpectreABase).
		Li(rB, SpectreBBase).
		Li(rRes, SpectreResultsBase).
		Li(rSlot, SpectreSlotAddr).
		Li(rTen, 10)

	// Aim the return slot at the landing pad.
	b.LiLabel(rLand, "rsb_landing").
		St(8, rSlot, 0, rLand).
		Fence()

	// Warm the probe pages' D-TLB entries plus the secret's page (v1's
	// training loop warms the latter as a side effect; here nothing else
	// touches A's page before the transient access).
	emitTLBWarm(b, p.region())
	b.Ld(1, rVal, rA, 0).
		Fence()
	if p.FlushBounds {
		b.Flush(rSlot, 0)
	}
	if p.FlushProbe {
		emitProbeFlush(b, p.region())
	}
	b.Fence()

	// Dive into the call chain. The instruction after the innermost call
	// is what the RAS will predict the victim's return to — the gadget:
	// read the secret, touch the secret-indexed probe line.
	b.Li(rSecPtr, SpectreABase+SpectreSecretOffset).
		Call(rsbLinks[0], "rsb_f1")
	if depth == 1 {
		emitAccessTransmit(b, p.Annotate, rSecPtr, p.shift())
	}
	b.Label("rsb_after").
		Fence()
	emitProbeScan(b, p.ProbeLines, 0, p.shift())
	b.Halt()

	for i := 1; i < depth; i++ {
		b.Label(fmt.Sprintf("rsb_f%d", i)).
			Call(rsbLinks[i], fmt.Sprintf("rsb_f%d", i+1))
		if i == depth-1 {
			emitAccessTransmit(b, p.Annotate, rSecPtr, p.shift())
		}
		// Architecturally dead (the landing pad exits the whole chain in
		// one jump), but keeps the fall-through path well-formed.
		b.Ret(rsbLinks[i])
	}

	// The victim frame: return through the flushed slot. The RAS top
	// still names the gadget; the delayed copy keeps the return
	// unresolved past the gadget's cold secret load.
	b.Label(fmt.Sprintf("rsb_f%d", depth)).
		Ld(8, rRet, rSlot, 0)
	emitLateCopy(b, rRet2, rRet)
	b.Ret(rRet2)

	// The landing pad: a direct (never-mispredicted) jump over every
	// stale frame straight to the scan. The leftover RAS entries are
	// never consulted again.
	b.Label("rsb_landing").
		Jmp("rsb_after")
	return b.Build()
}

// rsbLinks are the RSB template's per-frame link registers; they cap its
// nesting depth (MaxRSBDepth).
var rsbLinks = [...]uint8{25, 26, 27, 28, 29, 30, 1, 2}

// SSBWith assembles the speculative store bypass attack (Spectre v4):
// each round stores zero over a secret-seeded slot line through an
// address that hangs off a divide chain, then immediately loads the same
// slot. The LSQ lets the load issue past the older store while the
// store's address is still unresolved, so the load reads the STALE
// secret and the dependent transmit touches the secret-indexed probe
// line. When the store's address resolves, the alias is detected and the
// load replays with the forwarded zero — but on an undefended machine
// the transmit's fill is already in flight and installs. There is no
// branch anywhere in the window, so branch-scoped defenses (fences after
// branches, IS-Spectre's unresolved-branch test, the block-boundary
// stall) never engage: the class separates the Spectre threat model from
// the Futuristic one on the store-queue axis, exactly as Meltdown does
// on the exception axis.
//
// The replayed load architecturally re-touches probe line 0 (the
// forwarded zero), so the scan skips line 0 and plants the cold sentinel
// in its result slot; Validate already requires a nonzero secret.
func SSBWith(p SpectreParams) (*isa.Program, error) {
	if err := p.ValidateSSB(); err != nil {
		return nil, err
	}
	rounds := p.TrainRounds
	const rAddr = 12 // store address (late)
	b := isa.NewBuilder("ssb")
	// One slot line per round, each seeded with the secret byte.
	slots := make([]byte, (rounds-1)*64+1)
	for r := 0; r < rounds; r++ {
		slots[r*64] = p.Secret
	}
	b.Data(SSBSlotBase, slots)

	b.Li(rB, SpectreBBase).
		Li(rRes, SpectreResultsBase).
		Li(rTen, 10)

	// Warm the probe pages' D-TLB entries and the slot lines themselves:
	// the bypassing load must HIT so it performs (with the stale secret)
	// long before the store's address resolves.
	emitTLBWarm(b, p.region())
	b.Li(rSlot, SSBSlotBase)
	for r := 0; r < rounds; r++ {
		b.Ld(1, rVal, rSlot, int64(r*64))
	}
	b.Fence()
	if p.FlushProbe {
		emitProbeFlush(b, p.region())
	}
	b.Fence()

	for r := 0; r < rounds; r++ {
		// The store's address is the slot plus a late zero: architecturally
		// the slot itself, but unresolved for ~36 cycles. The load after
		// it bypasses the store and reads the stale secret.
		b.Li(rTmp, 6400).
			Div(rTmp, rTmp, rTen).
			Div(rTmp, rTmp, rTen).
			Div(rTmp, rTmp, rTen). // 6, three serialized 12-cycle divides late
			AndI(rTmp, rTmp, 0).   // 0, late
			Li(rSlot, uint64(SSBSlotBase+r*64)).
			Add(rAddr, rSlot, rTmp).
			St(1, rAddr, 0, 0) // store zero (r0 is never written) over the secret
		emitAccessTransmit(b, false, rSlot, p.shift())
	}
	b.Fence()
	emitProbeScan(b, p.ProbeLines, 1, p.shift())
	b.Halt()
	return b.Build()
}

// LLCSBContendWith assembles the two-program pair targeting the LLC
// speculative buffer: progs[0] is the victim (core 0), progs[1] the
// purely passive observer (core 1). Unlike the cross-thread Spectre
// placement, the observer never reaches into the victim's inputs — it
// flushes the shared state exactly once, hands the victim a go signal,
// and then only times its own probe loads. The victim autonomously runs
// one out-of-bounds gadget call whose transient transmit issues a BURST
// of loads to the secret-indexed line (distinct load-queue entries, so
// under InvisiSpec several LLC-SB fills and the Spec-GetS bounce path
// are exercised in one window). On Base the squashed demand fills still
// install in the shared LLC and the observer's probe of the secret line
// is an LLC hit; under InvisiSpec every fill is confined to the victim's
// per-core LLC-SB (§VI-E1) and must remain invisible — any hot line the
// observer sees is speculative-buffer residue that escaped.
func LLCSBContendWith(p SpectreParams) ([]*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	victim, err := llcsbVictim(p)
	if err != nil {
		return nil, err
	}
	observer, err := llcsbObserver(p)
	if err != nil {
		return nil, err
	}
	return []*isa.Program{victim, observer}, nil
}

// llcsbVictim emits the autonomous victim: train the bounds-check
// branch, signal readiness, wait for the observer's go, run the burst
// gadget once with the out-of-bounds index, and signal completion.
// Register 0 stays zero throughout and serves as the comparand of the
// spin branches.
func llcsbVictim(p SpectreParams) (*isa.Program, error) {
	const (
		rOne  = 3
		rFlag = 4
		rTrn  = 24
		rGo   = 26
		rRdy  = 27
	)
	b := isa.NewBuilder("llcsb-victim")
	emitVictimData(b, p.Secret, true)
	b.Li(rA, SpectreABase).
		Li(rB, SpectreBBase).
		Li(rBndPtr, SpectreBoundsAddr).
		Li(rTrn, llcsbCtrlTrained).
		Li(rGo, llcsbCtrlGo).
		Li(rRdy, llcsbCtrlRdy).
		Li(rOne, 1)
	emitBoundsTraining(b, p.TrainRounds)

	// Warm this core's D-TLB entries for the probe pages (the victim's B
	// is a live data structure it has touched; see crossThreadVictim).
	emitTLBWarm(b, p.region())

	// Signal the observer, then spin until it has flushed the shared
	// state. The fence keeps the gadget's loads off the not-yet-resolved
	// spin-exit path.
	b.Fence().
		St(8, rTrn, 0, rOne)
	b.Label("wait_go").
		Ld(8, rFlag, rGo, 0).
		Beq(rFlag, 0, "wait_go").
		Fence()

	// The attack call: the out-of-bounds index is the victim's own — no
	// external input steers it.
	b.Li(rArg, SpectreSecretOffset).
		Call(rLink, "victim").
		Fence().
		St(8, rRdy, 0, rOne).
		Halt()

	// victim(a): the Figure-1 gadget with two extra same-line touches.
	emitBoundsVictim(b, p, true)
	return b.Build()
}

// llcsbObserver emits the passive observer: warm its own probe-page TLB
// entries, wait for training to finish, flush the shared state once
// (bounds to widen the victim's window, probe residue so the scan starts
// cold), signal go, and time a descending probe scan once the victim's
// gadget call has retired.
func llcsbObserver(p SpectreParams) (*isa.Program, error) {
	const (
		rFlag = 2
		rOne  = 9
		rTrn  = 25
		rGo   = 26
		rRdy  = 27
	)
	b := isa.NewBuilder("llcsb-observer")
	b.Li(rB, SpectreBBase).
		Li(rRes, SpectreResultsBase).
		Li(rBndPtr, SpectreBoundsAddr).
		Li(rTrn, llcsbCtrlTrained).
		Li(rGo, llcsbCtrlGo).
		Li(rRdy, llcsbCtrlRdy).
		Li(rOne, 1)

	// Warm this core's D-TLB entries for the probe pages.
	emitTLBWarm(b, p.region())

	// Wait for training, then perform the single flush of shared state —
	// the observer's only write into the experiment.
	b.Label("wait_trained").
		Ld(8, rFlag, rTrn, 0).
		Beq(rFlag, 0, "wait_trained").
		Fence()
	if p.FlushBounds {
		b.Flush(rBndPtr, 0)
	}
	if p.FlushProbe {
		emitProbeFlush(b, p.region())
	}
	b.Fence().
		St(8, rGo, 0, rOne)

	// Wait for the gadget call to retire on the victim core, then scan.
	b.Label("wait_rdy").
		Ld(8, rFlag, rRdy, 0).
		Beq(rFlag, 0, "wait_rdy").
		Fence()
	emitProbeScan(b, p.ProbeLines, 0, p.shift())
	b.Halt()
	return b.Build()
}
