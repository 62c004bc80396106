package core

// This file adapts the core to the defense framework: defenseView is the
// read-only window policy hooks (internal/defense.View) get into the
// pipeline. Each method corresponds to a piece of tracking hardware a
// real implementation of a scheme would carry; schemes can ask these
// questions and nothing else, which is what keeps every registered
// scheme inside the stepped/fast kernel-equivalence and conformance
// proofs.

// defenseView implements defense.View without exporting the methods on
// Core itself (the same pattern as the memsys client adapter).
type defenseView Core

func (c *Core) view() *defenseView { return (*defenseView)(c) }

// isBlockStart reports whether pc starts a basic block per the program's
// bb metadata. Out-of-range PCs (wrong-path fetch past the program's end,
// which decodes as a halt) are conservatively treated as leaders.
func (c *Core) isBlockStart(pc int) bool {
	if pc < 0 || pc >= len(c.bbLeader) {
		return true
	}
	return c.bbLeader[pc]
}

// OlderUnresolvedBranch reports whether any control-flow instruction
// older than logical ROB position rl is still unresolved — the paper's
// Spectre-model visibility test.
func (v *defenseView) OlderUnresolvedBranch(rl int) bool {
	return (*Core)(v).hasOlderUnresolvedBranch(rl)
}

// FutureVisible reports whether the instruction at logical ROB position
// rl is no longer squashable by anything older — the paper's Futuristic
// visibility test (§VIII conditions).
func (v *defenseView) FutureVisible(rl int) bool {
	return (*Core)(v).futureVisible(rl)
}

// OlderUnresolvedControl reports whether any mispredictable control
// instruction (conditional branch, indirect jump, return) anywhere in
// the ROB is still unresolved. Direct jumps and calls are excluded:
// their targets are statically known, so they never redirect the front
// end away from the predicted path.
func (v *defenseView) OlderUnresolvedControl() bool {
	c := (*Core)(v)
	for _, phys := range c.unresolved {
		if isBranchNeedingFence(c.rob[phys].inst.Op) {
			return true
		}
	}
	return false
}
