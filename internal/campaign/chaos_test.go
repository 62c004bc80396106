package campaign

// The seeded chaos harness self-tests: kill a journaled campaign at
// randomized checkpoint appends (torn final line included), resume it, and
// assert the final outcome stream is byte-identical to an uninterrupted
// run — at 1 and 4 workers, with transient fault injection layered on top.
// `make chaos` runs these plus the leakage/conform equivalents.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/runner"
)

// runToCompletionViaKills drives a journaled campaign to completion through
// a sequence of chaos kills: each round kills at a seeded random append
// until a final run (no chaos) finishes. Returns the completed outcomes.
func runToCompletionViaKills(t *testing.T, rng *rand.Rand, name string, cells []Cell, opts Options, kills int) []Outcome {
	t.Helper()
	for k := 0; k < kills; k++ {
		chaos := opts
		chaos.Resume = k > 0
		chaos.Chaos = &ChaosOptions{Seed: rng.Int63(), KillAtAppend: 1 + rng.Intn(len(cells))}
		_, err := Run(context.Background(), name, cells, chaos)
		if err == nil {
			// The kill point landed beyond the appends this round needed
			// (earlier cells were already journaled); the campaign is done.
			break
		}
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("kill round %d: %v", k, err)
		}
	}
	final := opts
	final.Resume = true
	outcomes, err := Run(context.Background(), name, cells, final)
	if err != nil {
		t.Fatal(err)
	}
	return outcomes
}

// TestChaosKillResumeByteIdentity is the core resilience proof on synthetic
// cells: for three seeds, at 1 and 4 workers, a campaign SIGKILLed at
// randomized journal appends (including one permanently failing cell and
// injected transient faults) resumes to an outcome stream byte-identical to
// an uninterrupted run's.
func TestChaosKillResumeByteIdentity(t *testing.T) {
	boom := errors.New("cell 5 is deterministically broken")
	for _, seed := range []int64{101, 202, 303} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d-w%d", seed, workers), func(t *testing.T) {
				name := fmt.Sprintf("chaos-%d-%d", seed, workers)
				cells := synthCells(name, 8, map[int]error{5: boom})
				base := Options{Workers: workers, Retries: 2}
				noSleep(&base)

				clean, err := Run(context.Background(), name, cells, base)
				if err != nil {
					t.Fatal(err)
				}
				cleanPayload := payload(t, clean)

				rng := rand.New(rand.NewSource(seed))
				opts := base
				opts.Journal = filepath.Join(t.TempDir(), "j.jsonl")
				opts.Chaos = &ChaosOptions{Seed: seed, FaultEveryN: 3}
				resumed := runToCompletionViaKills(t, rng, name, cells, opts, 2)

				if got := payload(t, resumed); got != cleanPayload {
					t.Fatalf("resumed payload drifted from clean run:\n--- clean ---\n%s--- resumed ---\n%s", cleanPayload, got)
				}
				replayed := 0
				for _, o := range resumed {
					if o.FromJournal {
						replayed++
					}
				}
				if replayed == 0 {
					t.Fatal("final resume replayed nothing from the journal — the kills never landed")
				}
				cleanDeg := Degraded(clean, nil)
				resumedDeg := Degraded(resumed, nil)
				if len(cleanDeg) != 1 || len(resumedDeg) != 1 || cleanDeg[0].Error != resumedDeg[0].Error {
					t.Fatalf("degraded block drifted: clean %+v vs resumed %+v", cleanDeg, resumedDeg)
				}
			})
		}
	}
}

// TestChaosFaultInjectionRetriesRecover: with a fault injected into every
// cell's first attempt, a retry budget of 1 recovers every cell and the
// payload matches the fault-free run exactly.
func TestChaosFaultInjectionRetriesRecover(t *testing.T) {
	cells := synthCells("chaosfault", 6, nil)
	base := Options{Workers: 2, Retries: 1}
	noSleep(&base)
	clean, err := Run(context.Background(), "chaosfault", cells, base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.Chaos = &ChaosOptions{Seed: 9, FaultEveryN: 1}
	injected, err := Run(context.Background(), "chaosfault", cells, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if payload(t, injected) != payload(t, clean) {
		t.Fatal("fault-injected payload drifted from clean run")
	}
	for _, o := range injected {
		if o.Attempts != 2 {
			t.Fatalf("cell %s survived on attempt %d, want 2 (one injected fault + one retry)", o.Name, o.Attempts)
		}
	}
}

// TestChaosBenchKillResume: the bench campaign (real harness.Measure cells
// through JobCells) killed at seeded checkpoints resumes to a bench-JSON
// deterministic payload byte-identical to an uninterrupted run, at 1 and 4
// workers.
func TestChaosBenchKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("bench chaos in -short")
	}
	jobs := runner.Matrix([]string{"libquantum"}, false, []config.Consistency{config.TSO},
		config.AllDefenses(), nil, 500, 2000)
	cells := JobCells(jobs, engine.KernelFast, time.Minute)

	benchPayload := func(outcomes []Outcome) []byte {
		t.Helper()
		results, err := JobResults(jobs, outcomes)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		p, err := runner.NewBench("chaos", 500, 2000, results).DeterministicPayload()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	clean, err := Run(context.Background(), "bench-chaos", cells, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := benchPayload(clean)

	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(seed))
			opts := Options{Workers: workers, Retries: 1,
				Journal: filepath.Join(t.TempDir(), "j.jsonl")}
			noSleep(&opts)
			outcomes := runToCompletionViaKills(t, rng, "bench-chaos", cells, opts, 1)
			if got := benchPayload(outcomes); !bytes.Equal(got, want) {
				t.Fatalf("seed %d workers %d: resumed bench payload drifted:\n%s\n--- want ---\n%s", seed, workers, got, want)
			}
		}
	}
}
