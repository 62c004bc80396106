package conform

// Chaos self-test for the conformance campaign: a journaled fuzz campaign
// SIGKILLed at seeded random checkpoint appends must resume to a report
// whose deterministic payload is byte-identical to an uninterrupted run's,
// at 1 and 4 workers. Part of `make chaos`.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"invisispec/internal/campaign"
)

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
				opts := base
				opts.Jobs = workers
				opts.Campaign = campaign.Options{
					Journal: filepath.Join(t.TempDir(), "j.jsonl"),
					Retries: 1,
				}
				opts.Campaign.Chaos = &campaign.ChaosOptions{
					Seed:         rng.Int63(),
					KillAtAppend: 1 + rng.Intn(base.N),
				}
				rep, err := Campaign(context.Background(), opts)
				if err != nil {
					if !errors.Is(err, campaign.ErrKilled) {
						t.Fatal(err)
					}
					resumed := opts
					resumed.Campaign.Chaos = nil
					resumed.Campaign.Resume = true
					rep, err = Campaign(context.Background(), resumed)
					if err != nil {
						t.Fatal(err)
					}
				}
				if got := payload(rep); !bytes.Equal(got, want) {
					t.Fatalf("resumed conform payload drifted from clean run:\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}
