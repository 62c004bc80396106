package leakage

import (
	"context"
	"testing"

	"invisispec/internal/config"
)

// Per-class leak/block tests: each post-v1 attack class's canonical spec
// must leak the planted secret on undefended Base and land exactly where
// the expected-outcome matrix says under IS-Fu — blocked for the
// branch-shaped classes (BTB, RSB, LLC-SB contention) and for SSB, whose
// bypassing loads are unsafe under the Futuristic model (an older
// unperformed store) so their fills stay invisible.
func testClassOnBaseAndISFu(t *testing.T, spec AttackSpec) {
	t.Helper()
	rep, err := Scan(context.Background(), []AttackSpec{spec}, ScanOptions{
		Defenses: []config.Defense{config.Base, config.ISFuture},
		Trials:   1,
		Name:     "class-" + spec.Template.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Violation {
			t.Errorf("%s under %s: violation (%v, expected %v)", c.Attack, c.Defense, c.Verdict, c.Expected)
		}
		switch config.Defense(c.Defense) {
		case config.Base:
			if c.Verdict != VerdictLeak {
				t.Errorf("%s on Base: verdict %v, want leak", c.Attack, c.Verdict)
			}
			if c.RecoveredByte != int(spec.Secret) {
				t.Errorf("%s on Base: recovered byte %d, want %d", c.Attack, c.RecoveredByte, spec.Secret)
			}
		case config.ISFuture:
			if c.Verdict != VerdictBlocked {
				t.Errorf("%s on IS-Fu: verdict %v, want blocked", c.Attack, c.Verdict)
			}
		}
	}
}

func TestClassBTBLeaksBaseBlockedISFu(t *testing.T) {
	testClassOnBaseAndISFu(t, CanonicalBTBSpec(84))
}

func TestClassRSBLeaksBaseBlockedISFu(t *testing.T) {
	testClassOnBaseAndISFu(t, CanonicalRSBSpec(84))
}

func TestClassSSBLeaksBaseBlockedISFu(t *testing.T) {
	testClassOnBaseAndISFu(t, CanonicalSSBSpec(84))
}

func TestClassLLCSBLeaksBaseBlockedISFu(t *testing.T) {
	testClassOnBaseAndISFu(t, CanonicalLLCSBSpec(84))
}

// TestRSBLeaksAtEveryDepth pins the emitLateCopy fix: the RSB victim has
// no training phase, so the gadget's cold instruction fetches trail the
// window-opening slot load by tens of cycles — the serialized divide
// chain must hold the return address unresolved long enough at every
// admissible call-nesting depth, not just the canonical one.
func TestRSBLeaksAtEveryDepth(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		spec := newSpec(TemplateSpectreRSB, 84, depth, 256, 64)
		rep, err := Scan(context.Background(), []AttackSpec{spec}, ScanOptions{
			Defenses: []config.Defense{config.Base},
			Trials:   1,
			Name:     "rsb-depth",
		})
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Cells[0]
		if c.Verdict != VerdictLeak || c.RecoveredByte != 84 {
			t.Errorf("rsb depth %d on Base: verdict %v recovered %d, want leak of 84", depth, c.Verdict, c.RecoveredByte)
		}
	}
}

// TestSSBLeaksThroughBranchDefenses pins SSB's designed threat-model
// boundary: the speculation window is an older store's unresolved
// address, not a branch, so the branch-scoped defenses (fences after
// branches, IS-Sp's unresolved-branch test, BasicBlocker's block
// boundaries) miss it by design — documented expected-leak rows, not
// violations.
func TestSSBLeaksThroughBranchDefenses(t *testing.T) {
	rep, err := Scan(context.Background(), []AttackSpec{CanonicalSSBSpec(84)}, ScanOptions{
		Defenses: []config.Defense{config.FenceSpectre, config.ISSpectre, config.BasicBlocker},
		Trials:   1,
		Name:     "ssb-boundary",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Verdict != VerdictLeak || c.RecoveredByte != 84 {
			t.Errorf("ssb under %s: verdict %v recovered %d, want leak of 84", c.Defense, c.Verdict, c.RecoveredByte)
		}
		if !c.ExpectedLeak || c.Violation {
			t.Errorf("ssb under %s: designed threat-model leak misclassified (expected=%v violation=%v)", c.Defense, c.ExpectedLeak, c.Violation)
		}
	}
}
