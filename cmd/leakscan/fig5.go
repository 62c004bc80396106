package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/leakage"
)

// runFig5 is the -fig5 mode: the Spectre v1 attack of Figure 1 on Base and
// IS-Sp, judged by the distinguisher over repeated trials. It returns 1 when
// the outcome contradicts the paper's claim: Base must recover the secret
// and IS-Sp must not.
func runFig5(secret, trials, jobs int, timeout time.Duration, full bool) int {
	if secret < 1 || secret > 255 {
		fmt.Fprintln(os.Stderr, "leakscan: secret must be 1-255 (probe line 0 collects training residue)")
		return 2
	}
	spec := leakage.CanonicalSpectreSpec(byte(secret))
	defenses := []config.Defense{config.Base, config.ISSpectre}
	rep, err := leakage.Scan(context.Background(), []leakage.AttackSpec{spec}, leakage.ScanOptions{
		Defenses: defenses,
		Trials:   trials,
		Jobs:     jobs,
		Timeout:  timeout,
		Name:     "fig5",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		return 2
	}

	fmt.Printf("Spectre variant-1 PoC, secret value %d (paper Figure 5)\n\n", secret)
	failed := false
	for i, d := range defenses {
		c := rep.Cells[i]
		fmt.Printf("=== %s ===\n", d)
		if full {
			lats, err := leakage.SingleTrialLatencies(context.Background(), spec, d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "leakscan:", err)
				return 2
			}
			for i := 0; i < len(lats); i += 8 {
				for j := i; j < i+8 && j < len(lats); j++ {
					fmt.Printf("%3d:%4d ", j, lats[j])
				}
				fmt.Println()
			}
		}
		fmt.Printf("median probe latency %.0f cycles; secret line at %.0f cycles; hit rate %.0f%% over %d trials\n",
			c.MedianLatency, c.SecretLatency, 100*c.HitRate, c.Trials)
		switch {
		case d == config.Base && c.Verdict == leakage.VerdictLeak && c.RecoveredByte == secret:
			fmt.Printf("=> ATTACK SUCCEEDED: recovered secret %d (confidence %.2f)\n\n", c.RecoveredByte, c.Confidence)
		case d != config.Base && c.Verdict == leakage.VerdictBlocked:
			fmt.Printf("=> attack defeated: no probe line stands out (confidence %.2f)\n\n", c.Confidence)
		default:
			failed = true
			fmt.Printf("=> UNEXPECTED OUTCOME: verdict %s, recovered byte %d\n\n", c.Verdict, c.RecoveredByte)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "leakscan: outcome contradicts the paper's defense claim")
		return 1
	}
	return 0
}
