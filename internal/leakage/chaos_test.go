package leakage

// Chaos self-test for the leakage campaign: a journaled scan SIGKILLed at
// seeded random checkpoint appends must resume to a report whose
// deterministic payload is byte-identical to an uninterrupted scan's, at 1
// and 4 workers. Part of `make chaos`.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
)

func TestChaosLeakageKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("leakage chaos in -short")
	}
	specs := SmokeCorpus()[:2]
	base := ScanOptions{
		Defenses: []config.Defense{config.Base, config.ISSpectre},
		Trials:   2,
		Name:     "chaos",
	}

	payload := func(r *Report) []byte {
		t.Helper()
		b, err := json.Marshal(r.DeterministicPayload())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	clean, err := Scan(context.Background(), specs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(clean)
	cellCount := len(specs) * len(base.Defenses) * base.Trials

	for _, seed := range []int64{11, 22, 33} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d-w%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opts := base
				opts.Jobs = workers
				opts.Campaign = campaign.Options{
					Journal: filepath.Join(t.TempDir(), "j.jsonl"),
					Retries: 1,
				}
				// Kill the scan at a random checkpoint append, then resume;
				// a kill point past the remaining appends means the scan
				// completed this round.
				opts.Campaign.Chaos = &campaign.ChaosOptions{
					Seed:         rng.Int63(),
					KillAtAppend: 1 + rng.Intn(cellCount),
				}
				rep, err := Scan(context.Background(), specs, opts)
				if err != nil {
					if !errors.Is(err, campaign.ErrKilled) {
						t.Fatal(err)
					}
					resumed := opts
					resumed.Campaign.Chaos = nil
					resumed.Campaign.Resume = true
					rep, err = Scan(context.Background(), specs, resumed)
					if err != nil {
						t.Fatal(err)
					}
				}
				if got := payload(rep); !bytes.Equal(got, want) {
					t.Fatalf("resumed leakage payload drifted from clean run:\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}
