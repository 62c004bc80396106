package campaign

// The seeded kill/resume self-tests: run a campaign over a memo store (the
// -cache seam), cancel it after a seeded number of stored cells — the
// in-process stand-in for kill -9 — rerun it over the same store, and
// assert the final outcome stream is byte-identical to an uninterrupted
// run's and that the rerun served cells from the store — at 1 and 4
// workers, with seeded transient faults layered on top. `make chaos` runs
// these plus the leakage/conform equivalents.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/memo"
	"invisispec/internal/runner"
)

// chaosRun runs the campaign once over the memo store in dir, as a process
// that may be killed would: it cancels the campaign once kill new cells
// are stored (0: never), and the first attempt of every key whose seeded
// hash is 0 mod faultEvery (0: none) fails transiently. It returns the
// outcomes, the campaign's error and the store's hits.
func chaosRun(t *testing.T, dir, name string, cells []Cell, opts Options, seed int64, kill, faultEvery int) ([]Outcome, uint64, error) {
	t.Helper()
	store, err := memo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu     sync.Mutex
		stored int
		tried  = map[string]bool{}
	)
	cached := CacheExec(store, nil, func(hit bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if !hit && err == nil {
			if stored++; stored == kill {
				cancel()
			}
		}
	})
	opts.Exec = func(ctx context.Context, c Cell, key string) (json.RawMessage, error) {
		if faultEvery > 0 {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s", seed, key)
			mu.Lock()
			first := !tried[key]
			tried[key] = true
			mu.Unlock()
			if first && h.Sum64()%uint64(faultEvery) == 0 {
				return nil, fmt.Errorf("campaign: %s: injected fault: %w", c.Name, ErrTransient)
			}
		}
		return cached(ctx, c, key)
	}
	outcomes, err := Run(ctx, name, cells, opts)
	return outcomes, store.Stats().Hits, err
}

// runToCompletionViaKills drives a cached campaign to completion through a
// sequence of kills, each after a seeded random number of stored cells,
// then a final uninterrupted run over the same store. It returns the final
// run's outcomes and fails the test unless that run served cells from the
// store.
func runToCompletionViaKills(t *testing.T, rng *rand.Rand, name string, cells []Cell, opts Options, seed int64, kills, faultEvery int) []Outcome {
	t.Helper()
	dir := t.TempDir()
	for k := 0; k < kills; k++ {
		_, _, err := chaosRun(t, dir, name, cells, opts, seed, 1+rng.Intn(len(cells)), faultEvery)
		if err == nil {
			// The kill point lay beyond the cells this round computed
			// (earlier rounds stored the rest); the campaign is done.
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("kill round %d: %v", k, err)
		}
	}
	outcomes, hits, err := chaosRun(t, dir, name, cells, opts, seed, 0, faultEvery)
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("the final run served nothing from the cache — the kills stored no cell")
	}
	return outcomes
}

// TestChaosKillResumeByteIdentity is the core resilience proof on synthetic
// cells: for three seeds, at 1 and 4 workers, a cached campaign killed
// after seeded numbers of stored cells (with one permanently failing cell
// and injected transient faults) reruns to an outcome stream
// byte-identical to an uninterrupted run's.
func TestChaosKillResumeByteIdentity(t *testing.T) {
	boom := errors.New("cell 5 is deterministically broken")
	for _, seed := range []int64{101, 202, 303} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d-w%d", seed, workers), func(t *testing.T) {
				name := fmt.Sprintf("chaos-%d-%d", seed, workers)
				cells := synthCells(name, 8, map[int]error{5: boom})
				opts := Options{Workers: workers, Retries: 2}
				noSleep(&opts)

				clean, err := Run(context.Background(), name, cells, opts)
				if err != nil {
					t.Fatal(err)
				}
				cleanPayload := payload(t, clean)

				rng := rand.New(rand.NewSource(seed))
				resumed := runToCompletionViaKills(t, rng, name, cells, opts, seed, 2, 3)
				if got := payload(t, resumed); got != cleanPayload {
					t.Fatalf("resumed payload drifted from clean run:\n--- clean ---\n%s--- resumed ---\n%s", cleanPayload, got)
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
	opts := Options{Workers: 2, Retries: 1}
	noSleep(&opts)
	clean, err := Run(context.Background(), "chaosfault", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	injected, _, err := chaosRun(t, t.TempDir(), "chaosfault", cells, opts, 9, 0, 1)
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
// through JobCells) killed after a seeded number of stored cells reruns
// over its cache to a bench-JSON deterministic payload byte-identical to
// an uninterrupted run, at 1 and 4 workers.
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
			opts := Options{Workers: workers, Retries: 1}
			noSleep(&opts)
			outcomes := runToCompletionViaKills(t, rng, "bench-chaos", cells, opts, seed, 1, 0)
			if got := benchPayload(outcomes); !bytes.Equal(got, want) {
				t.Fatalf("seed %d workers %d: resumed bench payload drifted:\n%s\n--- want ---\n%s", seed, workers, got, want)
			}
		}
	}
}
