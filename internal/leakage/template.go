package leakage

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/workload"
)

// Template selects which transient-attack program family a spec
// instantiates. Its integer values are serialized in cell specs, and so
// in their content keys; a new template takes the next value and a row in
// templates.
type Template int

const (
	// TemplateSpectre is the same-thread Spectre v1 bounds-check bypass
	// (workload.SpectreV1With): attacker and victim share one core, the
	// paper's SameThread setting.
	TemplateSpectre Template = iota
	// TemplateSpectreCross is the cross-thread placement
	// (workload.SpectreV1CrossThread): victim on core 0, attacker on
	// core 1, leaking through the shared LLC.
	TemplateSpectreCross
	// TemplateMeltdown is the exception-based attack (workload.Meltdown):
	// a privileged load faults at retirement but its dependents run
	// transiently. Spectre-model defenses do not squash exception-caused
	// transients, so this template distinguishes the Spectre and
	// Futuristic threat models.
	TemplateMeltdown
	// TemplateSpectreBTB is Spectre v2 (workload.SpectreV2With): the
	// attacker poisons the BTB so the victim's indirect dispatch
	// transiently jumps to a secret-reading gadget. TrainRounds counts
	// BTB training calls; FlushBounds flushes the dispatch slot.
	TemplateSpectreBTB
	// TemplateSpectreRSB is the return-based variant
	// (workload.SpectreRSBWith): a deep call chain whose innermost frame
	// returns through a flushed memory slot, so the RAS-predicted return
	// site — the gadget — runs transiently. TrainRounds is the nesting
	// depth; FlushBounds flushes the return slot.
	TemplateSpectreRSB
	// TemplateSSB is the speculative store bypass (workload.SSBWith): a
	// load issues past an older store with an unresolved address and
	// reads the stale secret. No branch opens the window, so
	// branch-scoped defenses never engage — the store-queue analogue of
	// Meltdown's threat-model split. TrainRounds counts bypass rounds.
	TemplateSSB
	// TemplateLLCSBContend is the cross-core speculative-buffer residue
	// test (workload.LLCSBContendWith): an autonomous victim runs one
	// out-of-bounds gadget call whose transient loads burst at the
	// secret-indexed line; a purely passive observer on the second core
	// then times the probe array. Under InvisiSpec the fills are confined
	// to the victim's per-core LLC-SB and must stay invisible.
	TemplateLLCSBContend
)

// templateInfo is what one template is. The templates table is the only
// place that tells templates apart: every AttackSpec method reads its
// template's row.
type templateInfo struct {
	// name is the template's report name (Template.String).
	name string
	// cores is how many cores the template runs on, one program each.
	cores int
	// maxRounds bounds TrainRounds to [1, maxRounds]: the number the
	// template's workload validator checks, and the range the search
	// clamps its mutations to.
	maxRounds int
	// validate checks the workload parameters without assembling them.
	validate func(workload.SpectreParams) error
	// build assembles the programs, one per core.
	build func(workload.SpectreParams) ([]*isa.Program, error)
	// fixed, when set, is a probe geometry built into the template
	// (Meltdown's): the spec's geometry and control axes are not read,
	// the ID names only the secret, and the latencies land where fixed
	// says.
	fixed *resultsLayout
	// noTrust rejects TrustAnnotations: the template has no victim loads
	// to annotate.
	noTrust bool
	// leaks is the full-flush leak set: the defenses the variant with both
	// flushes on and no trusted annotation leaks through (see
	// AttackSpec.Expect).
	leaks []config.Defense
}

// resultsLayout is where a scan records its per-line latencies.
type resultsLayout struct {
	base  uint64
	lines int
}

// The full-flush leak sets of the rows, and the set the annotation rule
// substitutes; AttackSpec.Expect gives the reasons.
var (
	branchLeaks   = []config.Defense{config.Base}
	unscopedLeaks = []config.Defense{config.Base, config.FenceSpectre, config.ISSpectre, config.BasicBlocker}
	trustLeaks    = []config.Defense{config.Base, config.ISSpectre, config.ISFuture, config.SpecBox}
)

// templates is indexed by Template.
var templates = [...]templateInfo{
	TemplateSpectre: {
		name: "spectre", cores: 1, maxRounds: workload.MaxTrainRounds,
		validate: workload.SpectreParams.Validate, build: one(workload.SpectreV1With),
		leaks: branchLeaks,
	},
	TemplateSpectreCross: {
		name: "spectre-cross", cores: 2, maxRounds: workload.MaxTrainRounds,
		validate: workload.SpectreParams.Validate, build: workload.SpectreV1CrossThread,
		leaks: branchLeaks,
	},
	TemplateMeltdown: {
		name: "meltdown", cores: 1,
		build: func(p workload.SpectreParams) ([]*isa.Program, error) {
			return []*isa.Program{workload.Meltdown(p.Secret)}, nil
		},
		fixed: &resultsLayout{base: workload.MeltdownResultsBase, lines: workload.MeltdownProbeLines},
		leaks: unscopedLeaks,
	},
	TemplateSpectreBTB: {
		name: "spectre-btb", cores: 1, maxRounds: workload.MaxBTBRounds,
		validate: workload.SpectreParams.ValidateBTB, build: one(workload.SpectreV2With),
		leaks: branchLeaks,
	},
	TemplateSpectreRSB: {
		name: "spectre-rsb", cores: 1, maxRounds: workload.MaxRSBDepth,
		validate: workload.SpectreParams.ValidateRSB, build: one(workload.SpectreRSBWith),
		leaks: branchLeaks,
	},
	TemplateSSB: {
		name: "ssb", cores: 1, maxRounds: workload.MaxSSBRounds,
		validate: workload.SpectreParams.ValidateSSB, build: one(workload.SSBWith),
		noTrust: true, leaks: unscopedLeaks,
	},
	TemplateLLCSBContend: {
		name: "llcsb-contend", cores: 2, maxRounds: workload.MaxTrainRounds,
		validate: workload.SpectreParams.Validate, build: workload.LLCSBContendWith,
		leaks: branchLeaks,
	},
}

// one adapts a single-program builder to the table's build signature.
func one(build func(workload.SpectreParams) (*isa.Program, error)) func(workload.SpectreParams) ([]*isa.Program, error) {
	return func(p workload.SpectreParams) ([]*isa.Program, error) {
		prog, err := build(p)
		if err != nil {
			return nil, err
		}
		return []*isa.Program{prog}, nil
	}
}

// unknownTemplate is the row of a Template outside the table — one can
// arrive in hand-written spec JSON. It has no builder, so Validate and
// Programs reject the spec, and no cores, so no machine runs it.
var unknownTemplate templateInfo

// info returns t's row.
func (t Template) info() *templateInfo {
	if t < 0 || int(t) >= len(templates) {
		return &unknownTemplate
	}
	return &templates[t]
}

// String names the template the way the report's cells do.
func (t Template) String() string {
	if name := t.info().name; name != "" {
		return name
	}
	return fmt.Sprintf("Template(%d)", int(t))
}
