package leakage

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"invisispec/internal/config"
)

// TestTemplateRoundBounds holds the TrainRounds bounds the search clamps
// to against the workload validators: at each bound a template's spec
// validates and assembles, one step outside it fails Validate, and a long
// mutation walk from every search seed only ever proposes specs that
// assemble.
func TestTemplateRoundBounds(t *testing.T) {
	for i, row := range templates {
		if row.fixed != nil {
			continue // no TrainRounds axis
		}
		tmpl := Template(i)
		lo, hi := 1, row.maxRounds
		for _, tc := range []struct {
			rounds int
			ok     bool
		}{{lo, true}, {hi, true}, {lo - 1, false}, {hi + 1, false}} {
			s := newSpec(tmpl, 84, tc.rounds, 256, 64)
			err := s.Validate()
			if !tc.ok {
				if err == nil {
					t.Errorf("%s: TrainRounds %d outside [%d,%d] validates", s.ID, tc.rounds, lo, hi)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: TrainRounds %d inside [%d,%d] fails Validate: %v", s.ID, tc.rounds, lo, hi, err)
				continue
			}
			if _, err := s.Programs(); err != nil {
				t.Errorf("%s: does not assemble: %v", s.ID, err)
			}
		}
	}
	for _, seed := range DefaultSearchSeeds() {
		rng := rand.New(rand.NewSource(1))
		s := seed
		for i := 0; i < 300; i++ {
			s = mutateSpec(s, rng)
			if _, err := s.Programs(); err != nil {
				t.Fatalf("step %d from %s: mutant %s does not assemble: %v", i, seed.ID, s.ID, err)
			}
		}
	}
}

// TestUnknownTemplateRejected: a Template value outside the table, as
// hand-written spec JSON can carry it, is an error everywhere a spec is
// checked or run, never a panic.
func TestUnknownTemplateRejected(t *testing.T) {
	var ts TrialSpec
	body := `{"attack":{"ID":"x","Template":99,"Secret":84,"TrainRounds":16,"ProbeLines":256,"ProbeStride":64,"FlushBounds":true,"FlushProbe":true},"defense":"Base","trial":0,"max_cycles":1000}`
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	s := ts.Attack
	if got := s.Template.String(); got != "Template(99)" {
		t.Errorf("String = %q, want Template(99)", got)
	}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted an unknown template")
	}
	if _, err := s.Programs(); err == nil {
		t.Error("Programs assembled an unknown template")
	}
	if _, err := s.ViaWorkload("spectre").Programs(); err == nil {
		t.Error("Programs ran an imported workload for an unknown template")
	}
	if _, err := RunTrialSpec(context.Background(), ts); err == nil {
		t.Error("RunTrialSpec ran an unknown template")
	}
	if _, err := Scan(context.Background(), []AttackSpec{s}, ScanOptions{Defenses: []config.Defense{config.Base}}); err == nil {
		t.Error("Scan accepted an unknown template")
	}
	_ = s.Expect(config.Base)
	_ = s.ResultsBase()
	_ = s.ResultLines()
	_ = s.Machine()
}
