package workload

import "invisispec/internal/isa"

// PRIME+PROBE in the paper's CrossCore setting (§III-C): the attacker runs
// on another core and monitors the shared LLC's occupancy. The victim
// transiently accesses one target line behind a mispredicted (cold,
// slow-resolving) branch; on an insecure machine the squashed load's fill
// still evicts one of the attacker's primed lines from the target LLC set,
// and the attacker's timed re-probe detects it. Under InvisiSpec the
// Spec-GetS leaves the LLC (occupancy AND replacement state) untouched.

// Memory layout. The machine has 2 banks (2 cores) x 2048 sets x 16 ways;
// lines 256 KiB apart share both bank and set.
const (
	ppSetStride = 2 * 2048 * 64 // bank count * sets * line
	// PPTargetAddr is the victim's transiently accessed line.
	PPTargetAddr = 0x4000000 + 1000*64 // set 1000, away from code/flag sets
	// PPWays is the number of lines the attacker primes (LLC associativity).
	PPWays = 16
	// ppCondAddr feeds the victim's branch (kept cold so it resolves late).
	ppCondAddr = 0x7000040
	// ppDummyBase anchors the warm-up probe pass: same stride pattern,
	// different LLC set (harmless), same code — so the probe loop's
	// I-lines and branch history are hot before the timed pass.
	ppDummyBase = PPTargetAddr + 32*64 // set 1032
	// Synchronisation flags and the attacker's result area.
	ppFlagPrimeDone  = 0x7100000
	ppFlagVictimDone = 0x7200000
	// PPResultsBase receives the warm-up pass latencies; the timed pass
	// lands PPWays*8 bytes later (see PPProbeLatencies).
	PPResultsBase = 0x7300000
)

// ppPrimeAddr returns the attacker's i-th priming line (same LLC set as the
// target).
func ppPrimeAddr(i int) uint64 { return PPTargetAddr + uint64(i+1)*ppSetStride }

// PrimeProbeVictim builds the victim program (core 0).
func PrimeProbeVictim() *isa.Program {
	const (
		rFlag = 1
		rCond = 2
		rT    = 3
		rJunk = 4
		rDone = 5
		rOne  = 6
	)
	b := isa.NewBuilder("pp-victim")
	b.Li(rFlag, ppFlagPrimeDone).
		Li(rT, PPTargetAddr).
		Li(rDone, ppFlagVictimDone).
		Li(rOne, 1).
		Label("wait"). // wait for the attacker to finish priming
		Ld(8, rCond, rFlag, 0).
		Beq(rCond, 0, "wait").
		Fence().
		// The branch condition comes from a cold line through a divide
		// chain, so it resolves long after the transient body issues.
		Li(rCond, ppCondAddr).
		Ld(8, rCond, rCond, 0). // 0 (cold miss)
		Div(rCond, rOne, rOne). // rCond = 1, slowly...
		Li(rCond, ppCondAddr).
		Ld(8, rCond, rCond, 8). // 0, another cold-ish access
		AddI(rCond, rCond, 1).  // 1: the branch below is TAKEN...
		Bne(rCond, 0, "skip").  // ...but a cold predictor says not-taken
		Ld(1, rJunk, rT, 0).    // transient: fills the target LLC set on Base
		Label("skip").
		Fence().
		St(8, rDone, 0, rOne).
		Halt()
	return b.MustBuild()
}

// PrimeProbeAttacker builds the attacker program (core 1): prime the set,
// signal, wait, then probe each primed line with serialized timed loads.
// The probe loop runs twice: a warm-up pass over a harmless set (hot
// I-lines, trained loop branch) and then the timed pass over the primed
// set, so instruction fetches never land inside a timed window.
func PrimeProbeAttacker() *isa.Program {
	const (
		rPtr    = 1
		rVal    = 2
		rFlag   = 3
		rOne    = 4
		rT0     = 5
		rT1     = 6
		rDelta  = 7
		rRes    = 8
		rDone   = 9
		rIdx    = 10
		rBase   = 11
		rStride = 12
		rPass   = 13
		rLimit  = 14
		rTwo    = 15
	)
	b := isa.NewBuilder("pp-attacker")
	b.Li(rOne, 1).
		Li(rFlag, ppFlagPrimeDone).
		Li(rDone, ppFlagVictimDone)
	// Prime: load every way of the target set (twice, so the set is owned
	// in a stable LRU order and the L1-evicted copies are settled).
	for round := 0; round < 2; round++ {
		for i := 0; i < PPWays; i++ {
			b.Li(rPtr, ppPrimeAddr(i)).
				Ld(8, rVal, rPtr, 0)
		}
	}
	b.Fence().
		St(8, rFlag, 0, rOne). // priming done
		Label("wait").
		Ld(8, rVal, rDone, 0).
		Beq(rVal, 0, "wait").
		Fence()
	// Two probe passes: pass 0 = warm-up (dummy set), pass 1 = timed.
	b.Li(rPass, 0).
		Li(rTwo, 2).
		Li(rStride, ppSetStride).
		Li(rLimit, PPWays)
	b.Label("pass").
		Li(rBase, ppDummyBase).
		Beq(rPass, 0, "basedone").
		Li(rBase, PPTargetAddr)
	b.Label("basedone").
		ShlI(rRes, rPass, 7). // 128 bytes of results per pass
		AddI(rRes, rRes, PPResultsBase).
		Li(rIdx, 0).
		// Drain the previous pass completely, then anchor the timing
		// chain on a post-fence (L1-hot) load so no earlier in-flight
		// work can land inside a timed window.
		Fence().
		Ld(8, rVal, rFlag, 0)
	b.Label("probe").
		AndI(rDelta, rVal, 0). // depend on the previous probe
		AddI(rPtr, rIdx, 1).
		Mul(rPtr, rPtr, rStride).
		Add(rPtr, rPtr, rBase).
		Add(rPtr, rPtr, rDelta).
		Cycle(rT0, rPtr).
		Ld(8, rVal, rPtr, 0).
		Cycle(rT1, rVal).
		Sub(rDelta, rT1, rT0).
		ShlI(rT0, rIdx, 3).
		Add(rT0, rT0, rRes).
		St(8, rT0, 0, rDelta).
		AddI(rIdx, rIdx, 1).
		Blt(rIdx, rLimit, "probe").
		AddI(rPass, rPass, 1).
		Blt(rPass, rTwo, "pass").
		Halt()
	return b.MustBuild()
}

// PPProbeLatencies extracts the attacker's timed-pass measurements.
func PPProbeLatencies(mem *isa.Memory) [PPWays]uint64 {
	var out [PPWays]uint64
	for i := range out {
		out[i] = mem.Read(PPResultsBase+128+uint64(8*i), 8)
	}
	return out
}

// PPSlowProbes counts probes that went to DRAM (evicted primed lines).
func PPSlowProbes(mem *isa.Memory) int {
	n := 0
	for _, l := range PPProbeLatencies(mem) {
		if l > 60 {
			n++
		}
	}
	return n
}
