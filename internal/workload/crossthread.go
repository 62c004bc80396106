package workload

import "invisispec/internal/isa"

// Cross-thread (SMT-style) Spectre placement: the victim and the attacker
// are separate programs on separate cores sharing the inclusive LLC, the
// CrossThread setting of the paper's attack-settings table. The attacker
// cannot reach into the victim's pipeline, so the roles split along the
// paper's lines: the victim trains its own bounds-check branch and then
// services requests read from a shared mailbox; the attacker flushes the
// shared state, posts an out-of-bounds index, and FLUSH+RELOADs the probe
// array through its own cache hierarchy. On Base the victim's transient
// transmit load installs the secret-indexed line in the shared LLC, so the
// attacker's probe of that line is an LLC hit; under InvisiSpec the
// victim's squashed loads never become visible and every probe goes to
// DRAM.
//
// The handshake uses one cache line per flag so the spin loops contend on
// nothing but the flag they watch:
//
//	ready — victim → attacker: branch training is complete
//	idx   — attacker → victim: the attack index (zero = not posted yet);
//	        doubling as the go-signal keeps the index register-resident
//	        when the gadget runs, so the transient secret load issues
//	        immediately instead of waiting ~30 cycles on a remote mailbox
//	        line — latency that would push the transmit load past the
//	        bounds branch's resolution and close the leak
//	done  — victim → attacker: the gadget call has retired
const (
	SpectreCtrlBase = 0x380000
	spectreCtrlRdy  = SpectreCtrlBase
	spectreCtrlIdx  = SpectreCtrlBase + 128
	spectreCtrlDone = SpectreCtrlBase + 192
)

// SpectreV1CrossThread assembles the two-program cross-thread placement:
// progs[0] is the victim (run it on core 0), progs[1] the attacker. Use a
// 2-core machine, e.g. config.Default(2).
func SpectreV1CrossThread(p SpectreParams) ([]*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	victim, err := crossThreadVictim(p)
	if err != nil {
		return nil, err
	}
	attacker, err := crossThreadAttacker(p)
	if err != nil {
		return nil, err
	}
	return []*isa.Program{victim, attacker}, nil
}

// crossThreadVictim emits the victim program: train the bounds-check
// branch, signal readiness, wait for the attacker's index, run the Figure 1
// gadget once, and signal completion. Register 0 stays zero throughout and
// serves as the comparand of the spin branches.
func crossThreadVictim(p SpectreParams) (*isa.Program, error) {
	const (
		rOne  = 3
		rRdy  = 24
		rIdxP = 26
		rDone = 27
	)
	b := isa.NewBuilder("spectre-v1-cross-victim")
	emitVictimData(b, p.Secret, true)
	b.Li(rA, SpectreABase).
		Li(rB, SpectreBBase).
		Li(rBndPtr, SpectreBoundsAddr).
		Li(rRdy, spectreCtrlRdy).
		Li(rIdxP, spectreCtrlIdx).
		Li(rDone, spectreCtrlDone).
		Li(rOne, 1)
	emitBoundsTraining(b, p.TrainRounds)

	// Warm this core's D-TLB entries for the probe pages. An SMT attacker
	// shares the victim's D-TLB; across cores the victim must have touched
	// its own probe array — as a real victim whose B is a live data
	// structure would have — or the gadget's transient transmit stalls 40
	// cycles on a page walk and the bounds branch resolves first. The
	// attacker's flush below evicts these lines from every cache but
	// leaves the TLB entries in place.
	emitTLBWarm(b, p.region())

	// Tell the attacker training is done, then spin until the attack index
	// is posted. The spin load itself leaves the index in rArg, so the
	// gadget's transient chain starts with zero added latency. The fence
	// after the spin keeps the gadget's loads from issuing transiently
	// down the not-yet-resolved spin-exit path (with a stale zero index),
	// which would warm probe line 0 and corrupt the attacker's scan.
	b.Fence().
		St(8, rRdy, 0, rOne)
	b.Label("wait_idx").
		Ld(8, rArg, rIdxP, 0).
		Beq(rArg, 0, "wait_idx").
		Fence()

	// The attack call: the gadget runs once with the attacker's index.
	b.Call(rLink, "victim").
		Fence().
		St(8, rDone, 0, rOne).
		Halt()
	emitBoundsVictim(b, p, false)
	return b.Build()
}

// crossThreadAttacker emits the attacker program: warm the probe pages'
// TLB entries, wait for the victim to finish training, flush the shared
// state (OpFlush invalidates every cache in the system, like clflush),
// post the out-of-bounds index, and time a descending scan of the probe
// lines once the victim signals the gadget has retired.
func crossThreadAttacker(p SpectreParams) (*isa.Program, error) {
	const (
		rFlag = 2
		rRdy  = 25
		rIdxP = 26
		rDone = 27
		rOOB  = 28 // the out-of-bounds index
	)
	b := isa.NewBuilder("spectre-v1-cross-attacker")
	b.Li(rB, SpectreBBase).
		Li(rRes, SpectreResultsBase).
		Li(rBndPtr, SpectreBoundsAddr).
		Li(rRdy, spectreCtrlRdy).
		Li(rIdxP, spectreCtrlIdx).
		Li(rDone, spectreCtrlDone)

	// Warm this core's D-TLB entries for the probe pages so the timed
	// probes pay cache latency, not page walks.
	emitTLBWarm(b, p.region())

	// Wait for the victim's training to finish, then flush the state the
	// attack depends on out of EVERY cache: the bounds (to widen the
	// victim's speculation window) and all probe-array residue — B[0] from
	// the victim's training, this core's page-warming lines, and their
	// next-line prefetches.
	b.Label("wait_ready").
		Ld(8, rFlag, rRdy, 0).
		Beq(rFlag, 0, "wait_ready").
		Fence()
	if p.FlushBounds {
		b.Flush(rBndPtr, 0)
	}
	if p.FlushProbe {
		emitProbeFlush(b, p.region())
	}
	b.Fence()

	// Post the out-of-bounds index; a non-zero mailbox value IS the go
	// signal, so no separate flag store is needed.
	b.Li(rOOB, SpectreSecretOffset).
		St(8, rIdxP, 0, rOOB)

	// Wait for the gadget call to retire on the victim core. The fence
	// keeps the timed probes from issuing transiently while the spin-exit
	// branch is still unresolved.
	b.Label("wait_done").
		Ld(8, rFlag, rDone, 0).
		Beq(rFlag, 0, "wait_done").
		Fence()
	emitProbeScan(b, p.ProbeLines, 0, p.shift())
	b.Halt()
	return b.Build()
}
