package bpred

import (
	"math/rand"
	"testing"
)

// inFlight is the most snapshots the tests hold at once.
const inFlight = 8

func TestAlwaysTakenBranchLearns(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	pc := 42
	mispredicts := 0
	for i := 0; i < 100; i++ {
		snap := p.Snapshot()
		pred := p.PredictCond(pc)
		if !pred {
			mispredicts++
			p.Restore(snap)
			p.FixupHistory(true)
		}
		p.TrainCond(pc, true, snap.ghr)
	}
	if mispredicts > 3 {
		t.Fatalf("always-taken branch mispredicted %d/100 times", mispredicts)
	}
	// After warmup the prediction must be stable.
	if !p.PredictCond(pc) {
		t.Fatal("trained always-taken branch predicted not-taken")
	}
}

func TestAlternatingBranchGlobalWins(t *testing.T) {
	// A strict alternation is perfectly predictable from global history.
	p := New(DefaultConfig(), inFlight)
	pc := 7
	late := 0
	for i := 0; i < 400; i++ {
		outcome := i%2 == 0
		snap := p.Snapshot()
		pred := p.PredictCond(pc)
		if pred != outcome {
			if i >= 200 {
				late++
			}
			p.Restore(snap)
			p.FixupHistory(outcome)
		}
		p.TrainCond(pc, outcome, snap.ghr)
	}
	if late > 10 {
		t.Fatalf("alternating branch mispredicted %d/200 times after warmup", late)
	}
}

func TestBTBMissThenHit(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	if _, ok := p.PredictIndirect(100); ok {
		t.Fatal("cold BTB must miss")
	}
	p.TrainTarget(100, 555)
	tgt, ok := p.PredictIndirect(100)
	if !ok || tgt != 555 {
		t.Fatalf("BTB predicted (%d,%v), want (555,true)", tgt, ok)
	}
	// An aliasing PC (same set) with a different tag must miss.
	alias := 100 + DefaultConfig().BTBEntries
	if _, ok := p.PredictIndirect(alias); ok {
		t.Fatal("aliased BTB entry must not hit")
	}
}

func TestRASLifo(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	p.PushRAS(10)
	p.PushRAS(20)
	p.PushRAS(30)
	for _, want := range []int{30, 20, 10} {
		if got := p.PopRAS(); got != want {
			t.Fatalf("PopRAS = %d, want %d", got, want)
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 4
	p := New(cfg, inFlight)
	for i := 0; i < 6; i++ {
		p.PushRAS(i)
	}
	// Entries 5,4,3,2 survive; older ones were overwritten.
	for _, want := range []int{5, 4, 3, 2} {
		if got := p.PopRAS(); got != want {
			t.Fatalf("PopRAS = %d, want %d", got, want)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	p.PushRAS(1)
	p.PredictCond(5)
	snap := p.Snapshot()
	p.PushRAS(2)
	p.PushRAS(3)
	p.PredictCond(6)
	p.PredictCond(7)
	p.Restore(snap)
	if got := p.PopRAS(); got != 1 {
		t.Fatalf("restored RAS top = %d, want 1", got)
	}
	if p.ghr != snap.ghr {
		t.Fatalf("restored ghr = %#x, want %#x", p.ghr, snap.ghr)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	p.PushRAS(1)
	snap := p.Snapshot()
	p.PushRAS(2) // mutate after snapshot
	p.Restore(snap)
	p.PushRAS(9)
	if got := p.PopRAS(); got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
	if got := p.PopRAS(); got != 1 {
		t.Fatalf("snapshot was aliased: got %d, want 1", got)
	}
}

func TestRandomOutcomesMispredictHeavily(t *testing.T) {
	// A predictor cannot learn a random sequence; misprediction rate should
	// hover near 50%. This guards against accidental oracle behaviour.
	p := New(DefaultConfig(), inFlight)
	rng := rand.New(rand.NewSource(7))
	pc := 3
	mis := 0
	const n = 2000
	for i := 0; i < n; i++ {
		outcome := rng.Intn(2) == 0
		snap := p.Snapshot()
		pred := p.PredictCond(pc)
		if pred != outcome {
			mis++
			p.Restore(snap)
			p.FixupHistory(outcome)
		}
		p.TrainCond(pc, outcome, snap.ghr)
	}
	rate := float64(mis) / n
	if rate < 0.3 || rate > 0.7 {
		t.Fatalf("random-branch misprediction rate %.2f outside [0.3,0.7]", rate)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero BTB did not panic")
		}
	}()
	New(Config{LocalBits: 4, GlobalBits: 4, ChoiceBits: 4, BTBEntries: 0, RASEntries: 4}, inFlight)
}

// TestRASDeepNestSquashRestore drives the RAS through a speculative CALL/RET
// nest deeper than its 16 entries — wrapping rasTop past the snapshot point —
// then restores and checks the stack predicts exactly as before the wrong
// path: rasTop is back where it was and no stale wrong-path entry survives,
// even for pops that reach entries the wrong path overwrote after wrapping.
func TestRASDeepNestSquashRestore(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	depth := p.cfg.RASEntries // 16
	// Architecturally committed prefix: half-fill the stack.
	for i := 0; i < depth/2; i++ {
		p.PushRAS(100 + i)
	}
	snap := p.Snapshot()
	wantTop := p.rasTop

	// Wrong path 1: overflow. Push 2.5x the capacity so rasTop wraps twice
	// and every slot — including the committed prefix — is overwritten.
	for i := 0; i < depth*5/2; i++ {
		p.PushRAS(9000 + i)
	}
	p.Restore(snap)
	if p.rasTop != wantTop {
		t.Fatalf("after overflow restore: rasTop = %d, want %d", p.rasTop, wantTop)
	}
	for i := depth/2 - 1; i >= 0; i-- {
		if got := p.PopRAS(); got != 100+i {
			t.Fatalf("after overflow restore: pop %d = %d, want %d", i, got, 100+i)
		}
	}
	p.Restore(snap)

	// Wrong path 2: underflow. Pop far past the live depth so rasTop wraps
	// backwards through stale slots, then push new wrong-path entries.
	for i := 0; i < depth*2; i++ {
		p.PopRAS()
	}
	p.PushRAS(7777)
	p.PushRAS(8888)
	p.Restore(snap)
	if p.rasTop != wantTop {
		t.Fatalf("after underflow restore: rasTop = %d, want %d", p.rasTop, wantTop)
	}
	for i := depth/2 - 1; i >= 0; i-- {
		if got := p.PopRAS(); got != 100+i {
			t.Fatalf("after underflow restore: pop %d = %d, want %d", i, got, 100+i)
		}
	}

	// Interleaved nests: snapshot inside a nest, speculate a deeper nest
	// with returns, restore, and check the outer nest still unwinds.
	p = New(DefaultConfig(), inFlight)
	for i := 0; i < 3; i++ {
		p.PushRAS(10 + i)
	}
	snap = p.Snapshot()
	for i := 0; i < depth+4; i++ { // deeper than capacity
		p.PushRAS(5000 + i)
	}
	for i := 0; i < depth+4; i++ {
		p.PopRAS()
	}
	p.Restore(snap)
	for i := 2; i >= 0; i-- {
		if got := p.PopRAS(); got != 10+i {
			t.Fatalf("nested restore: pop = %d, want %d", got, 10+i)
		}
	}
}

// TestSnapshotsShareRASUntilPush checks the ring of RAS copies: snapshots
// taken with no push in between name one copy, a snapshot's stack survives
// later pushes, pops and restores of younger snapshots, and once the ring
// has grown to its size no snapshot allocates.
func TestSnapshotsShareRASUntilPush(t *testing.T) {
	p := New(DefaultConfig(), inFlight)
	p.PushRAS(1)
	p.PushRAS(2)
	a := p.Snapshot()
	p.PopRAS() // moves rasTop only: a later snapshot shares a's copy
	b := p.Snapshot()
	if b.copy != a.copy {
		t.Fatalf("snapshots with no push between them name copies %d and %d", a.copy, b.copy)
	}
	p.PushRAS(3) // overwrites the slot that held 2
	c := p.Snapshot()
	if c.copy == a.copy {
		t.Fatal("a snapshot after a push shares the copy of one before it")
	}
	p.PushRAS(4)

	p.Restore(c)
	if got := p.PopRAS(); got != 3 {
		t.Fatalf("restored c: pop = %d, want 3", got)
	}
	p.PushRAS(5) // writes the live stack, never c's copy
	p.Restore(c)
	if got := p.PopRAS(); got != 3 {
		t.Fatalf("restored c after a push on top of it: pop = %d, want 3", got)
	}
	p.Restore(b) // older than c: squashes it
	if got := p.PopRAS(); got != 1 {
		t.Fatalf("restored b: pop = %d, want 1", got)
	}
	p.Restore(a)
	if got := p.PopRAS(); got != 2 {
		t.Fatalf("restored a after later pushes: pop = %d, want 2", got)
	}
	if got := p.PopRAS(); got != 1 {
		t.Fatalf("restored a: second pop = %d, want 1", got)
	}

	for i := 0; i <= inFlight; i++ { // grow the ring to its full size
		p.PushRAS(i)
		p.Snapshot()
	}
	if n := testing.AllocsPerRun(100, func() { p.Snapshot() }); n != 0 {
		t.Fatalf("Snapshot with no push since the last one allocated %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.PushRAS(6); p.Snapshot() }); n != 0 {
		t.Fatalf("Snapshot after a push allocated %v times once the ring is full, want 0", n)
	}
}

// TestRingKeepsLiveSnapshots drives the ring the way a core does: up to
// inFlight snapshots live at once, each taken after a call's push, the
// oldest retiring, and squashes restoring a random live snapshot and
// dropping every younger one. Each restore must bring back the exact stack
// the snapshot saw, so no new copy may overwrite a live one, however often
// the ring wraps.
func TestRingKeepsLiveSnapshots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 4
	p := New(cfg, inFlight)
	type live struct {
		snap  State
		stack []int // pops after a restore, youngest first
	}
	stack := func() []int { // the live stack, read by popping a copy
		q := *p
		q.ras = append([]int(nil), p.ras...)
		out := make([]int, len(q.ras))
		for i := range out {
			out[i] = q.PopRAS()
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	var window []live
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 6 && len(window) < inFlight: // fetch a call
			p.PushRAS(step)
			window = append(window, live{p.Snapshot(), stack()})
		case r < 8 && len(window) > 0: // retire the oldest
			window = window[1:]
		case len(window) > 0: // squash back to a live snapshot
			k := rng.Intn(len(window))
			p.Restore(window[k].snap)
			got := stack()
			for i, want := range window[k].stack {
				if got[i] != want {
					t.Fatalf("step %d: restored stack %v, want %v", step, got, window[k].stack)
				}
			}
			window = window[:k+1]
		}
	}
}
