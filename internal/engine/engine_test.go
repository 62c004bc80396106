package engine

import "testing"

// fakeComp scripts a NextWake schedule and records every tick and skip.
type fakeComp struct {
	wake    func(now uint64) uint64
	ticks   []uint64
	skipped uint64
}

func (f *fakeComp) Tick(now uint64)            { f.ticks = append(f.ticks, now) }
func (f *fakeComp) NextWake(now uint64) uint64 { return f.wake(now) }
func (f *fakeComp) SkipIdle(k uint64)          { f.skipped += k }

func busy(uint64) uint64 { return 0 } // <= now+1: never skip

func TestReferenceStepperTicksEveryCycle(t *testing.T) {
	c := &fakeComp{wake: func(uint64) uint64 { t.Fatal("reference stepper consulted NextWake"); return 0 }}
	s := NewStepper(KernelStepped, 0, c)
	var now uint64
	for i := 0; i < 5; i++ {
		now = s.StepTo(1000) // limit far away: still single-cycle
	}
	if now != 5 || len(c.ticks) != 5 {
		t.Fatalf("now=%d ticks=%v", now, c.ticks)
	}
	for i, cy := range c.ticks {
		if cy != uint64(i+1) {
			t.Fatalf("tick %d at cycle %d", i, cy)
		}
	}
}

func TestSchedulerJumpsToEarliestWake(t *testing.T) {
	a := &fakeComp{wake: func(now uint64) uint64 { return 100 }}
	b := &fakeComp{wake: func(now uint64) uint64 { return 40 }}
	s := NewStepper(KernelFast, 0, a, b)
	if got := s.StepTo(1000); got != 40 {
		t.Fatalf("landed at %d, want 40 (min wake)", got)
	}
	// b is due at the landing: credited the 39 skipped cycles, then ticked.
	if len(b.ticks) != 1 || b.ticks[0] != 40 || b.skipped != 39 {
		t.Fatalf("due component: ticks=%v skipped=%d, want [40] and 39", b.ticks, b.skipped)
	}
	// a is not due until 100: credited all 40 cycles and not ticked.
	if len(a.ticks) != 0 || a.skipped != 40 {
		t.Fatalf("idle component: ticks=%v skipped=%d, want none and 40", a.ticks, a.skipped)
	}
}

func TestSchedulerBusyComponentBlocksJump(t *testing.T) {
	idle := &fakeComp{wake: func(now uint64) uint64 { return Never }}
	bz := &fakeComp{wake: busy}
	s := NewStepper(KernelFast, 0, idle, bz)
	if got := s.StepTo(1000); got != 1 {
		t.Fatalf("landed at %d, want 1 (busy component)", got)
	}
	if jumps, skipped := s.(*Scheduler).SkipStats(); jumps != 0 || skipped != 0 {
		t.Fatalf("a busy component's landing counted as a jump: %d/%d", jumps, skipped)
	}
	if len(bz.ticks) != 1 || bz.skipped != 0 {
		t.Fatalf("busy component: ticks=%v skipped=%d, want [1] and 0", bz.ticks, bz.skipped)
	}
	if len(idle.ticks) != 0 || idle.skipped != 1 {
		t.Fatalf("idle component: ticks=%v skipped=%d, want none and 1", idle.ticks, idle.skipped)
	}
}

func TestSchedulerCapsAtLimit(t *testing.T) {
	c := &fakeComp{wake: func(now uint64) uint64 { return Never }}
	s := NewStepper(KernelFast, 10, c)
	if got := s.StepTo(64); got != 64 {
		t.Fatalf("landed at %d, want limit 64", got)
	}
	if jumps, skipped := s.(*Scheduler).SkipStats(); jumps != 1 || skipped != 53 { // 64 - 11
		t.Fatalf("jumps=%d skipped=%d, want 1/53", jumps, skipped)
	}
	// The limit is a landing, not a wake: the idle component is credited
	// every cycle up to it and not ticked.
	if len(c.ticks) != 0 || c.skipped != 54 {
		t.Fatalf("ticks=%v skipped=%d, want none and 54", c.ticks, c.skipped)
	}
	// A wake before the limit wins over the limit.
	c2 := &fakeComp{wake: func(now uint64) uint64 { return now + 7 }}
	s2 := NewStepper(KernelFast, 0, c2)
	if got := s2.StepTo(64); got != 7 {
		t.Fatalf("landed at %d, want 7", got)
	}
	if len(c2.ticks) != 1 || c2.ticks[0] != 7 || c2.skipped != 6 {
		t.Fatalf("ticks=%v skipped=%d, want [7] and 6", c2.ticks, c2.skipped)
	}
}

func TestSchedulerMinimumAdvance(t *testing.T) {
	c := &fakeComp{wake: func(now uint64) uint64 { return Never }}
	s := NewStepper(KernelFast, 10, c)
	// limit <= now+1: exactly one cycle, and no jump.
	if got := s.StepTo(5); got != 11 {
		t.Fatalf("landed at %d, want 11", got)
	}
	if jumps, skipped := s.(*Scheduler).SkipStats(); jumps != 0 || skipped != 0 {
		t.Fatalf("jumps=%d skipped=%d, want 0/0", jumps, skipped)
	}
	if len(c.ticks) != 0 || c.skipped != 1 {
		t.Fatalf("ticks=%v skipped=%d, want none and 1", c.ticks, c.skipped)
	}
}

// A component without per-cycle accounting ticks at every landing, due or
// not (the memory hierarchy resets its port budgets there).
func TestSchedulerTicksNonSkipperEveryLanding(t *testing.T) {
	var order []int
	h := &orderComp{id: 0, order: &order}
	c := &fakeComp{wake: func(now uint64) uint64 { return now + 3 }}
	s := NewStepper(KernelFast, 0, h, c)
	for now := uint64(0); now < 8; {
		now = s.StepTo(now + 2) // lands on the limit, before c's wake
	}
	if len(order) != 4 {
		t.Fatalf("non-skipper ticked %d times at 4 landings", len(order))
	}
	if len(c.ticks) != 0 || c.skipped != 8 {
		t.Fatalf("ticks=%v skipped=%d, want none and 8", c.ticks, c.skipped)
	}
}

// inputComp is an IdleSkipper that idles until an input marks it, the way
// a hierarchy callback marks a core.
type inputComp struct {
	fakeComp
	marked bool
	at     uint64 // cycle of the last input
}

func (c *inputComp) NextWake(now uint64) uint64 {
	if c.marked && c.at >= now {
		return now + 1
	}
	return Never
}

// senderComp delivers one input to another component during its tick at
// cycle send.
type senderComp struct {
	fakeComp
	send uint64
	to   *inputComp
}

func (s *senderComp) Tick(now uint64) {
	s.fakeComp.Tick(now)
	if now == s.send {
		s.to.marked, s.to.at = true, now
	}
}

func (s *senderComp) NextWake(now uint64) uint64 {
	if now < s.send {
		return s.send
	}
	return Never
}

// An input from a component ticked earlier in the same landing makes the
// receiver due at once: it ticks in that cycle.
func TestSchedulerInputBeforeTurnTicksThisCycle(t *testing.T) {
	recv := &inputComp{}
	send := &senderComp{send: 5, to: recv}
	s := NewStepper(KernelFast, 0, send, recv)
	if got := s.StepTo(100); got != 5 {
		t.Fatalf("landed at %d, want 5", got)
	}
	if len(recv.ticks) != 1 || recv.ticks[0] != 5 || recv.skipped != 4 {
		t.Fatalf("receiver: ticks=%v skipped=%d, want [5] and 4", recv.ticks, recv.skipped)
	}
}

// An input from a component ticked later in the same landing finds the
// receiver already credited: it ticks in the next cycle, as it would under
// the reference stepper.
func TestSchedulerInputAfterTurnTicksNextCycle(t *testing.T) {
	recv := &inputComp{}
	send := &senderComp{send: 5, to: recv}
	s := NewStepper(KernelFast, 0, recv, send)
	if got := s.StepTo(100); got != 5 {
		t.Fatalf("landed at %d, want 5", got)
	}
	if len(recv.ticks) != 0 || recv.skipped != 5 {
		t.Fatalf("receiver at 5: ticks=%v skipped=%d, want none and 5", recv.ticks, recv.skipped)
	}
	if got := s.StepTo(100); got != 6 {
		t.Fatalf("landed at %d, want 6 (the receiver is busy)", got)
	}
	if len(recv.ticks) != 1 || recv.ticks[0] != 6 || recv.skipped != 5 {
		t.Fatalf("receiver at 6: ticks=%v skipped=%d, want [6] and 5", recv.ticks, recv.skipped)
	}
}

func TestSchedulerDeterministicTickOrder(t *testing.T) {
	var order []int
	mk := func(id int) Component {
		return &orderComp{id: id, order: &order}
	}
	s := NewStepper(KernelFast, 0, mk(0), mk(1), mk(2))
	s.StepTo(100)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("tick order %v, want [0 1 2]", order)
	}
}

type orderComp struct {
	id    int
	order *[]int
}

func (o *orderComp) Tick(uint64)            { *o.order = append(*o.order, o.id) }
func (o *orderComp) NextWake(uint64) uint64 { return Never }

func TestSkipStats(t *testing.T) {
	c := &fakeComp{wake: func(now uint64) uint64 { return now + 10 }}
	s := NewStepper(KernelFast, 0, c).(*Scheduler)
	s.StepTo(1000)
	s.StepTo(1000)
	jumps, skipped := s.SkipStats()
	if jumps != 2 || skipped != 18 { // 9 skipped per jump
		t.Fatalf("jumps=%d skipped=%d, want 2/18", jumps, skipped)
	}
}

func TestKernelParseAndString(t *testing.T) {
	for _, k := range []Kernel{KernelFast, KernelStepped} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("round-trip %v: got %v err %v", k, got, err)
		}
	}
	if _, err := ParseKernel("warp"); err == nil {
		t.Fatal("ParseKernel accepted garbage")
	}
}
