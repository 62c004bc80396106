package leakage

import (
	"fmt"
	"math/rand"
)

// This file generates attack corpora. Both generators are deterministic:
// SmokeCorpus is a fixed list, Corpus derives everything from its seed, so
// a report names its corpus by (generator, seed, n) and any row can be
// replayed.

// defaultID derives the spec's report name from its parameters, so a
// report row identifies its variant without a side table. A template with
// a fixed geometry has no parameters but the secret.
func (s AttackSpec) defaultID() string {
	if s.Template.info().fixed != nil {
		return fmt.Sprintf("%s-s%d", s.Template, s.Secret)
	}
	id := fmt.Sprintf("%s-s%d-r%d-%dx%d", s.Template, s.Secret, s.TrainRounds, s.ProbeLines, s.ProbeStride)
	if !s.FlushBounds {
		id += "-nofb"
	}
	if !s.FlushProbe {
		id += "-nofp"
	}
	if s.Annotate {
		id += "-annot"
	}
	if s.TrustAnnotations {
		id += "-trust"
	}
	return id
}

// withID fills in the derived ID.
func (s AttackSpec) withID() AttackSpec {
	s.ID = s.defaultID()
	return s
}

// ViaWorkload returns a copy of the spec that resolves its programs
// through the named registry workload — an imported trace recorded from a
// program this spec's parameters describe. The ID gains an "@workload"
// suffix so scan cells and their content keys stay distinct from the
// template-assembled spec's.
func (s AttackSpec) ViaWorkload(name string) AttackSpec {
	s.Workload = name
	s.ID += "@" + name
	return s
}

// newSpec builds a spec with both flushes on and its derived ID.
// TrainRounds means what the template says it means: training sweeps for
// v1, BTB training calls for v2, call-nesting depth for the RSB variant,
// bypass rounds for SSB.
func newSpec(t Template, secret byte, rounds, lines, stride int) AttackSpec {
	return AttackSpec{
		Template:    t,
		Secret:      secret,
		TrainRounds: rounds,
		ProbeLines:  lines,
		ProbeStride: stride,
		FlushBounds: true,
		FlushProbe:  true,
	}.withID()
}

// trusted returns the spec with its victim loads annotated safe on a
// machine that trusts the annotation: the §XI threat-model corner.
func (s AttackSpec) trusted() AttackSpec {
	s.Annotate, s.TrustAnnotations = true, true
	return s.withID()
}

// CanonicalSpectreSpec returns the paper's Figure 1 attack with the given
// secret: same-thread placement, 16 training rounds, 256 probe lines of
// 64 bytes, bounds and probe array flushed. leakscan -fig5 runs exactly
// this spec.
func CanonicalSpectreSpec(secret byte) AttackSpec {
	return newSpec(TemplateSpectre, secret, 16, 256, 64)
}

// Canonical per-class specs: the representative variant of each of the
// four post-v1 attack classes, used by the smoke corpus, the search
// loop's seeds, and the per-class unit tests.
func CanonicalBTBSpec(secret byte) AttackSpec {
	return newSpec(TemplateSpectreBTB, secret, 16, 256, 64)
}
func CanonicalRSBSpec(secret byte) AttackSpec { return newSpec(TemplateSpectreRSB, secret, 4, 256, 64) }
func CanonicalSSBSpec(secret byte) AttackSpec { return newSpec(TemplateSSB, secret, 8, 256, 64) }
func CanonicalLLCSBSpec(secret byte) AttackSpec {
	return newSpec(TemplateLLCSBContend, secret, 16, 256, 64)
}

// SmokeCorpus returns the fixed ten-variant corpus the CI gate scans: one
// representative of every template and threat-model corner, small enough
// to run in CI yet covering the canonical attack, the fuzz axes (training
// depth, probe geometry), the cross-thread placement, the annotation
// threat-model boundary, Meltdown, and the four post-v1 classes (BTB,
// RSB, store bypass, LLC-SB contention).
func SmokeCorpus() []AttackSpec {
	return []AttackSpec{
		CanonicalSpectreSpec(84),
		newSpec(TemplateSpectre, 173, 32, 256, 64),
		newSpec(TemplateSpectre, 61, 16, 128, 128),
		newSpec(TemplateSpectreCross, 199, 16, 256, 64),
		CanonicalSpectreSpec(84).trusted(),
		AttackSpec{Template: TemplateMeltdown, Secret: 90}.withID(),
		CanonicalBTBSpec(77), CanonicalRSBSpec(118), CanonicalSSBSpec(151), CanonicalLLCSBSpec(202),
	}
}

// Corpus generates n fuzzed attack specs from seed, deterministically:
// the same (seed, n) always yields the same corpus, and Corpus(seed, n)
// is a prefix of Corpus(seed, n+k). The mix weights same-thread Spectre
// variants (with fuzzed training depth, probe geometry, and secret)
// heaviest, and sprinkles in cross-thread placements, the annotation
// threat-model corner, the no-flush-bounds negative control, and
// Meltdown. Duplicate parameter draws are deduplicated by ID re-rolling,
// bounded so pathological (seed, n) pairs still terminate.
func Corpus(seed int64, n int) []AttackSpec {
	rng := rand.New(rand.NewSource(seed))
	var (
		specs = make([]AttackSpec, 0, n)
		seen  = map[string]bool{}
	)
	rounds := []int{4, 8, 16, 32}
	rsbDepths := []int{1, 2, 4, 8}
	lines := []int{64, 128, 256}
	strides := []int{64, 128, 256}
	for len(specs) < n {
		var s AttackSpec
		// Up to 32 re-rolls to find an unseen variant; after that accept
		// the duplicate (tiny parameter spaces saturate).
		for attempt := 0; attempt < 32; attempt++ {
			switch roll := rng.Intn(14); {
			case roll < 5: // same-thread Spectre, fuzzed axes
				l := lines[rng.Intn(len(lines))]
				s = newSpec(TemplateSpectre,
					byte(1+rng.Intn(l-1)),
					rounds[rng.Intn(len(rounds))],
					l,
					strides[rng.Intn(len(strides))],
				)
			case roll < 7: // cross-thread placement, fuzzed secret + depth
				s = newSpec(TemplateSpectreCross, byte(1+rng.Intn(255)), rounds[rng.Intn(len(rounds))], 256, 64)
			case roll < 8: // annotation threat-model corner
				s = CanonicalSpectreSpec(byte(1 + rng.Intn(255))).trusted()
			case roll < 9: // negative control: window never opens
				base := CanonicalSpectreSpec(byte(1 + rng.Intn(255)))
				base.FlushBounds = false
				s = base.withID()
			case roll < 10: // Meltdown, fuzzed secret
				s = AttackSpec{Template: TemplateMeltdown, Secret: byte(1 + rng.Intn(255))}.withID()
			case roll < 11: // Spectre v2 (BTB), fuzzed secret + training depth
				s = newSpec(TemplateSpectreBTB, byte(1+rng.Intn(255)), rounds[rng.Intn(len(rounds))], 256, 64)
			case roll < 12: // RSB variant, fuzzed secret + nesting depth (RAS-capped)
				s = newSpec(TemplateSpectreRSB, byte(1+rng.Intn(255)), rsbDepths[rng.Intn(len(rsbDepths))], 256, 64)
			case roll < 13: // store bypass, fuzzed secret + bypass rounds
				s = newSpec(TemplateSSB, byte(1+rng.Intn(255)), rounds[rng.Intn(len(rounds))], 256, 64)
			default: // LLC-SB contention, fuzzed secret + training depth
				s = newSpec(TemplateLLCSBContend, byte(1+rng.Intn(255)), rounds[rng.Intn(len(rounds))], 256, 64)
			}
			if !seen[s.ID] {
				break
			}
		}
		seen[s.ID] = true
		specs = append(specs, s)
	}
	return specs
}
