// Package leakage is the automated leakage-testing subsystem: a seeded
// corpus of transient-attack variants (parameterizing the attack templates
// in internal/workload, one row each in the templates table), a
// statistical distinguisher
// that turns repeated per-probe-line latency measurements into leak
// verdicts with confidence scores, and a scanner that fans the
// corpus x defense matrix through the internal/runner worker pool and
// emits a deterministic JSON report. cmd/leakscan wires it into CI as a
// security regression gate: the InvisiSpec defenses must block every
// attack they claim to block, and the attacks themselves must still work
// on the undefended baseline (a corpus whose attacks silently stopped
// leaking tests nothing).
package leakage

import (
	"fmt"
	"slices"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/workload"
)

// AttackSpec is one corpus entry: a fully-parameterized transient attack
// that assembles to concrete programs. Every field is plain data so specs
// serialize, compare, and replay deterministically.
type AttackSpec struct {
	// ID names the spec in reports, errors, and progress lines. Corpus
	// generators derive it from the parameters so a report row is
	// reproducible from its name alone.
	ID string
	// Template picks the program family.
	Template Template
	// Secret is the byte the attack tries to exfiltrate. Must be nonzero
	// (probe line 0 collects training/prefetch residue) and, for Spectre
	// templates, less than ProbeLines.
	Secret byte
	// TrainRounds, ProbeLines, ProbeStride, FlushBounds, FlushProbe and
	// Annotate parameterize the Spectre templates exactly as
	// workload.SpectreParams does; Meltdown ignores them (its probe
	// geometry is fixed at 256 lines x 64 bytes).
	TrainRounds int
	ProbeLines  int
	ProbeStride int
	FlushBounds bool
	FlushProbe  bool
	Annotate    bool
	// TrustAnnotations runs the machine with
	// config.Machine.TrustSafeAnnotations set (§XI): annotated-safe loads
	// bypass the USL machinery. Combined with Annotate this re-opens the
	// leak under IS-Sp/IS-Fu — deliberately, to pin the threat-model
	// boundary; the report marks those cells as expected leaks.
	TrustAnnotations bool
	// Workload, when set, resolves the programs through the workload
	// registry instead of assembling the template — the imported-trace
	// path: a recorded attack replays byte-identically while the template
	// and geometry fields keep driving the expected-outcome matrix, the
	// probe scan, and the machine shape. The named workload must have been
	// recorded from a program this spec's parameters describe; the
	// omitempty tag keeps the content keys of template-assembled specs
	// unchanged.
	Workload string `json:",omitempty"`
}

// params converts the spec to the workload parameter block.
func (s AttackSpec) params() workload.SpectreParams {
	return workload.SpectreParams{
		Secret:      s.Secret,
		TrainRounds: s.TrainRounds,
		ProbeLines:  s.ProbeLines,
		ProbeStride: s.ProbeStride,
		FlushBounds: s.FlushBounds,
		FlushProbe:  s.FlushProbe,
		Annotate:    s.Annotate,
	}
}

// Validate checks the spec assembles to a well-formed attack.
func (s AttackSpec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("leakage: spec has no ID")
	}
	if s.Secret == 0 {
		return fmt.Errorf("leakage: %s: secret must be nonzero (line 0 collects training residue)", s.ID)
	}
	t := s.Template.info()
	if t.build == nil {
		return fmt.Errorf("leakage: %s: unknown template %d", s.ID, int(s.Template))
	}
	if t.validate != nil {
		if err := t.validate(s.params()); err != nil {
			return fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
	}
	if t.noTrust && s.TrustAnnotations {
		return fmt.Errorf("leakage: %s: TrustAnnotations unsupported (%s has no annotated loads)", s.ID, s.Template)
	}
	return nil
}

// Cores returns how many cores the spec's machine needs.
func (s AttackSpec) Cores() int { return s.Template.info().cores }

// Machine returns the machine configuration the spec runs on.
func (s AttackSpec) Machine() config.Machine {
	m := config.Default(s.Cores())
	m.TrustSafeAnnotations = s.TrustAnnotations
	return m
}

// Programs assembles the spec, one program per core: from the registry
// when Workload names an imported recording, from the template otherwise.
func (s AttackSpec) Programs() ([]*isa.Program, error) {
	t := s.Template.info()
	if t.build == nil {
		return nil, fmt.Errorf("leakage: %s: unknown template %d", s.ID, int(s.Template))
	}
	if s.Workload != "" {
		w, err := workload.Lookup(s.Workload)
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		progs, err := w.Programs(w.DefaultCores())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		if len(progs) != t.cores {
			return nil, fmt.Errorf("leakage: %s: workload %q provides %d core(s), template %s needs %d",
				s.ID, s.Workload, len(progs), s.Template, t.cores)
		}
		return progs, nil
	}
	progs, err := t.build(s.params())
	if err != nil {
		return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
	}
	return progs, nil
}

// ResultsBase returns where the attacker's per-probe-line latencies land
// in functional memory.
func (s AttackSpec) ResultsBase() uint64 {
	if f := s.Template.info().fixed; f != nil {
		return f.base
	}
	return workload.SpectreResultsBase
}

// ResultLines returns how many probe-line latencies the attack records.
func (s AttackSpec) ResultLines() int {
	if f := s.Template.info().fixed; f != nil {
		return f.lines
	}
	return s.ProbeLines
}

// Expect returns the verdict the defense-outcome matrix predicts for this
// spec under defense d. The matrix is empirical ground truth, established
// by running every variant class under every defense. A template's row
// gives its full-flush leak set (both flushes on, no trusted annotation):
//
//   - Spectre v1 (both placements), Spectre-BTB, Spectre-RSB and LLC-SB
//     contention leak only on Base. Their windows open at a branch — a
//     bounds check, an indirect dispatch, a return — and every defense
//     closes a branch-shaped window: fences serialize after it,
//     InvisiSpec keeps the squashed loads invisible. LLC-SB's burst fills
//     land in the victim's per-core LLC-SB and stay invisible to the
//     observer core.
//   - Meltdown and SSB leak on Base, Fe-Sp, IS-Sp and BasicBlocker. An
//     exception is a Futuristic squash source, and an older store's
//     unresolved address opens a window with no branch in it: both are
//     outside the Spectre model BY DESIGN (documented threat-model rows).
//     Fe-Fu blocks them (its per-load fences wait them out), IS-Fu keeps
//     their fills invisible, and SpecBox quarantines fills until the ROB
//     head, which the faulting or bypassing load never reaches
//     un-squashed. BasicBlocker leaks them: no block boundary separates
//     the access from its dependent transmit.
//
// The control axes then override the row, the same for every template
// that has them (Meltdown's geometry is fixed, so it has none):
//
//   - FlushProbe=false: probe line 0 stays hot with training residue in
//     every configuration, so the scan cannot distinguish leak from
//     blocked — Inconclusive everywhere (a distinguisher control).
//   - FlushBounds=false (with the probe flushed): the window-opening
//     value hits in L1, the branch resolves before the secret arrives,
//     and the window closes — Blocked everywhere, Base included (a
//     negative control).
//   - Annotate+TrustAnnotations: safe-annotated loads bypass the USL
//     machinery, so the leak re-opens on every invisible-load scheme
//     (IS-Sp, IS-Fu, SpecBox) and Base; the fence defenses and
//     BasicBlocker still close the window in the front end, which the
//     annotation does not touch. This is the §XI threat-model boundary,
//     reported as an expected leak.
func (s AttackSpec) Expect(d config.Defense) Verdict {
	t := s.Template.info()
	leaks := t.leaks
	if t.fixed == nil {
		switch {
		case !s.FlushProbe:
			return VerdictInconclusive
		case !s.FlushBounds:
			return VerdictBlocked
		case s.Annotate && s.TrustAnnotations:
			leaks = trustLeaks
		}
	}
	if slices.Contains(leaks, d) {
		return VerdictLeak
	}
	return VerdictBlocked
}
