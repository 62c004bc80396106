// Package workload provides the programs the evaluation runs: the Spectre
// variant-1 proof-of-concept of the paper's Figure 1 (used for Figure 5), a
// Meltdown-style exception attack, 23 SPEC2006-like single-threaded kernels,
// and 9 PARSEC-like multi-threaded kernels. See DESIGN.md §2 for how these
// substitute for the paper's benchmark binaries.
package workload

import (
	"fmt"

	"invisispec/internal/isa"
)

// Memory layout of the Spectre proof of concept.
const (
	// SpectreABase is the base of the victim's 10-byte array A.
	SpectreABase = 0x100000
	// SpectreSecretOffset is the attacker-chosen out-of-bounds index:
	// the secret byte lives at SpectreABase + SpectreSecretOffset.
	SpectreSecretOffset = 0x800
	// SpectreBoundsAddr holds the bounds value (10) that the victim's
	// if-condition loads; the attacker flushes it to widen the speculation
	// window, as real exploits do.
	SpectreBoundsAddr = 0x180000
	// SpectreBBase is the base of the 256-line probe array B.
	SpectreBBase = 0x200000
	// SpectreResultsBase receives 256 little-endian uint64 access
	// latencies, one per probe line, measured by the attacker's scan.
	SpectreResultsBase = 0x300000
	// SpectreProbeLines is the number of probe lines (possible byte
	// values).
	SpectreProbeLines = 256
)

// SpectreParams parameterizes the Spectre variant-1 templates. The leakage
// corpus (internal/leakage) fuzzes these axes; the zero value is invalid —
// start from CanonicalSpectre.
type SpectreParams struct {
	// Secret is the byte the attacker tries to recover. Must be < ProbeLines
	// (the probe array can only encode that many values) and non-zero (probe
	// line 0 is warmed by branch training, so a zero secret is
	// indistinguishable from training residue).
	Secret byte
	// TrainRounds is how many times the attacker sweeps the in-bounds
	// indices to train the victim's bounds-check branch.
	TrainRounds int
	// ProbeLines is how many probe-array lines the transmitter can select
	// between and the scan times.
	ProbeLines int
	// ProbeStride is the byte distance between consecutive probe lines
	// (power of two, at least one cache line).
	ProbeStride int
	// FlushBounds flushes the victim's bounds value before the attack call,
	// widening the speculation window. Without it the bounds load hits L1,
	// the branch resolves before the (cold) secret load returns, and the
	// transmit load never issues: a negative-control variant that must NOT
	// leak even on Base.
	FlushBounds bool
	// FlushProbe flushes the training/warming residue out of the probe
	// array before the attack call. Without it, stale warm lines (probe
	// line 0 from training plus the page-warming lines) dominate the scan
	// on every configuration, masking the signal: a distinguisher control
	// that classifies as Inconclusive rather than Leak or Blocked.
	FlushProbe bool
	// Annotate marks the victim's access and transmit loads as statically
	// safe (isa.LdSafe), modelling a WRONG static proof. Only machines with
	// TrustSafeAnnotations honour the annotation (§XI threat-model
	// boundary).
	Annotate bool
}

// CanonicalSpectre is the paper's Figure 1 attack shape: the parameters
// SpectreV1 has always used.
func CanonicalSpectre(secret byte) SpectreParams {
	return SpectreParams{
		Secret:      secret,
		TrainRounds: 16,
		ProbeLines:  SpectreProbeLines,
		ProbeStride: 64,
		FlushBounds: true,
		FlushProbe:  true,
	}
}

// TrainRounds bounds, one per attack class: a class's TrainRounds must lie
// in [1, its bound]. Validate and the per-class validators check them, and
// the leakage template table clamps its search to them.
const (
	// MaxTrainRounds bounds the Spectre v1 training sweeps (both
	// placements and the LLC-SB victim).
	MaxTrainRounds = 256
	// MaxBTBRounds bounds the Spectre v2 BTB training calls: more buys
	// nothing and only stretches the simulation.
	MaxBTBRounds = 64
	// MaxRSBDepth bounds the RSB template's nested call depth: the RAS
	// holds 16 entries and the frame link registers cap the practical
	// depth at 8.
	MaxRSBDepth = len(rsbLinks)
	// MaxSSBRounds bounds the store-bypass rounds, one slot line each.
	MaxSSBRounds = 64
)

// Validate reports the first structural problem with the parameters.
func (p SpectreParams) Validate() error {
	switch {
	case p.TrainRounds < 1 || p.TrainRounds > MaxTrainRounds:
		return fmt.Errorf("workload: TrainRounds %d outside [1,%d]", p.TrainRounds, MaxTrainRounds)
	case p.ProbeLines < 16 || p.ProbeLines > 256 || p.ProbeLines&(p.ProbeLines-1) != 0:
		return fmt.Errorf("workload: ProbeLines %d must be a power of two in [16,256]", p.ProbeLines)
	case p.ProbeStride < 64 || p.ProbeStride&(p.ProbeStride-1) != 0:
		return fmt.Errorf("workload: ProbeStride %d must be a power of two ≥ 64", p.ProbeStride)
	case p.ProbeLines*p.ProbeStride > 0x100000:
		return fmt.Errorf("workload: probe region %d bytes overruns the results area", p.ProbeLines*p.ProbeStride)
	case int(p.Secret) >= p.ProbeLines:
		return fmt.Errorf("workload: secret %d not encodable in %d probe lines", p.Secret, p.ProbeLines)
	}
	return nil
}

// SpectreV1 assembles the attack of the paper's Figure 1 in one program
// (the SameThread setting): the attacker trains the victim's bounds-check
// branch, flushes the bounds and the probe array, calls the victim with an
// out-of-bounds index that speculatively reads the secret byte and touches
// the secret-indexed probe line, then times a scan of every probe line.
// On an insecure machine the secret-indexed line is a cache hit; under
// InvisiSpec the squashed loads leave no trace and every probe misses.
func SpectreV1(secret byte) *isa.Program {
	return mustSpectre(CanonicalSpectre(secret))
}

// SpectreV1Annotated is the same attack with the victim's transient access
// and transmit loads (incorrectly) annotated as statically safe. It exists
// to demonstrate the threat-model boundary of the TrustSafeAnnotations
// optimization (§XI): a wrong proof re-opens the leak.
func SpectreV1Annotated(secret byte) *isa.Program {
	p := CanonicalSpectre(secret)
	p.Annotate = true
	return mustSpectre(p)
}

func mustSpectre(p SpectreParams) *isa.Program {
	prog, err := SpectreV1With(p)
	if err != nil {
		panic(err)
	}
	return prog
}

// SpectreV1With assembles the same-thread Spectre variant-1 attack for an
// arbitrary point in the parameter space.
func SpectreV1With(p SpectreParams) (*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := isa.NewBuilder("spectre-v1")
	emitVictimData(b, p.Secret, true)
	b.Li(rA, SpectreABase).
		Li(rB, SpectreBBase).
		Li(rRes, SpectreResultsBase).
		Li(rBndPtr, SpectreBoundsAddr)
	emitBoundsTraining(b, p.TrainRounds)
	emitTLBWarm(b, p.region())
	emitStragglerDrain(b)
	// Flush the state the attack depends on: the bounds (to widen the
	// speculation window) and every probe line touched so far. The
	// corpus's control variants skip one of these on purpose to probe the
	// distinguisher's failure classification.
	if p.FlushBounds {
		b.Flush(rBndPtr, 0)
	}
	if p.FlushProbe {
		emitProbeFlush(b, p.region())
	}
	b.Fence()

	// The attack call: a = X - &A reaches the secret byte. The fence keeps
	// the scan's own probes from issuing down the mispredicted path (which
	// falls through the victim's return into the scan) before the bounds
	// check resolves.
	b.Li(rArg, SpectreSecretOffset).
		Call(rLink, "victim").
		Fence()
	emitProbeScan(b, p.ProbeLines, 0, p.shift())
	b.Halt()
	emitBoundsVictim(b, p, false)
	return b.Build()
}

// SpectreScanLatencies extracts the attacker's measured per-line latencies
// from a finished machine's memory.
func SpectreScanLatencies(mem *isa.Memory) [SpectreProbeLines]uint64 {
	var out [SpectreProbeLines]uint64
	copy(out[:], ScanLatencies(mem, SpectreResultsBase, SpectreProbeLines))
	return out
}

// ScanLatencies extracts n per-probe-line latencies stored as little-endian
// uint64s at base — the generalized form of SpectreScanLatencies for
// parameterized probe counts and for the Meltdown results area.
func ScanLatencies(mem *isa.Memory, base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = mem.Read(base+uint64(8*i), 8)
	}
	return out
}

// Meltdown memory layout: the secret, a probe array of MeltdownProbeLines
// 64-byte lines, and the handler's scan results.
const (
	MeltdownSecretAddr  = 0x400000
	MeltdownProbeBase   = 0x500000
	MeltdownResultsBase = 0x600000
	MeltdownProbeLines  = 256
)

// Meltdown assembles an exception-based transient attack: a privileged load
// reads the secret; dependent transient instructions touch a secret-indexed
// probe line before the fault squashes them at retirement; the handler then
// times a scan. Spectre-only defenses (IS-Spectre) do NOT stop this —
// exceptions are a Futuristic-model squash source — while IS-Future does.
func Meltdown(secret byte) *isa.Program {
	const (
		lines   = MeltdownProbeLines
		shift   = 6  // 64-byte probe lines
		rBlkPtr = 12 // blocker load address
	)
	b := isa.NewBuilder("meltdown")
	b.Data(MeltdownSecretAddr, []byte{secret})
	b.Li(rB, MeltdownProbeBase).
		Li(rRes, MeltdownResultsBase).
		Li(rSecPtr, MeltdownSecretAddr).
		// Warm the secret page's TLB entry with an adjacent, unprivileged
		// load so the privileged load performs quickly.
		Ld(1, rVal, rSecPtr, 63)
	// Warm the probe pages' TLB entries, then flush the touched lines.
	emitTLBWarm(b, lines<<shift)
	b.Fence()
	emitProbeFlush(b, lines<<shift)
	b.Fence().
		// A blocker load whose address hangs off a divide chain keeps the
		// privileged load away from the ROB head long enough for its
		// dependent transient instructions to run (real Meltdown exploits
		// delay retirement the same way).
		Li(rTmp, 6400).
		Li(rTen, 10).
		Div(rTmp, rTmp, rTen).
		Div(rTmp, rTmp, rTen).
		Div(rTmp, rTmp, rTen). // 6, late
		AndI(rTmp, rTmp, 0).
		Li(rBlkPtr, 0x700000).
		Add(rBlkPtr, rBlkPtr, rTmp).
		Ld(8, rTmp, rBlkPtr, 0). // cold: holds the ROB head ~150 cycles
		// The access instruction: privileged, faults at retirement...
		LdPriv(1, rSec, rSecPtr, 0).
		// ...but these transient instructions run first:
		ShlI(rSec, rSec, shift).
		Add(rBPtr2, rB, rSec).
		Ld(1, rJunk, rBPtr2, 0).
		Halt() // unreachable: the fault transfers to the handler
	b.Label("handler")
	emitProbeScan(b, lines, 0, shift)
	b.Halt().
		Handler("handler")
	return b.MustBuild()
}
