package conform

// Kill/resume self-test for the conformance campaign: a fuzz campaign over
// a memo store (the -cache seam), cancelled after a seeded number of
// stored programs and rerun over the same store, must reach a report whose
// deterministic payload is byte-identical to an uninterrupted run's, at 1
// and 4 workers, with the rerun serving programs from the store. Part of
// `make chaos`.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/memo"
)

// chaosCampaign opens the memo store in dir and returns a context plus
// campaign options that serve cells from the store and cancel the context
// once kill new cells are stored (0: never) — the in-process stand-in for
// kill -9. The store's Hits show what a run was served.
func chaosCampaign(t *testing.T, dir string, kill int) (context.Context, campaign.Options, *memo.Store) {
	t.Helper()
	store, err := memo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var stored atomic.Int32
	exec := campaign.CacheExec(store, nil, func(hit bool, err error) {
		if !hit && err == nil && int(stored.Add(1)) == kill {
			cancel()
		}
	})
	return ctx, campaign.Options{Exec: exec, Retries: 1}, store
}

func TestChaosConformKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("conform chaos in -short")
	}
	base := Options{Seed: 77, N: 4}

	payload := func(r *Report) []byte {
		t.Helper()
		b, err := r.DeterministicPayload()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	clean, err := Campaign(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(clean)

	for _, seed := range []int64{5, 6, 7} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d-w%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				opts := base
				opts.Jobs = workers
				// Kill the campaign after a random number of stored
				// programs, then rerun it over the same cache; a kill point
				// past the programs means it completed this round.
				ctx, copts, _ := chaosCampaign(t, dir, 1+rng.Intn(base.N))
				opts.Campaign = copts
				if _, err := Campaign(ctx, opts); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				ctx, copts, store := chaosCampaign(t, dir, 0)
				opts.Campaign = copts
				rep, err := Campaign(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := payload(rep); !bytes.Equal(got, want) {
					t.Fatalf("resumed conform payload drifted from clean run:\n%s\n--- want ---\n%s", got, want)
				}
				if store.Stats().Hits == 0 {
					t.Fatal("the rerun served no program from the cache")
				}
			})
		}
	}
}
