package campaign

// Shared CLI surface: every campaign CLI (benchtable, leakscan, conformfuzz)
// exposes the same resilience flags, so the journaling and retry semantics
// are uniform across artifacts.

import (
	"flag"
	"fmt"
	"io"

	"invisispec/internal/artifact"
)

// AddFlags registers the uniform resilience flags on fs and returns a
// builder that assembles the Options they selected after fs.Parse.
func AddFlags(fs *flag.FlagSet) func() Options {
	var (
		journal = fs.String("journal", "", "append-only JSONL checkpoint journal path (\"\" = no checkpointing)")
		resume  = fs.Bool("resume", false, "skip cells already terminal in -journal and replay their values byte-identically")
		retries = fs.Int("retries", 2, "re-runs per cell after a transient failure (deterministic failures never retry)")
	)
	return func() Options {
		return Options{Journal: *journal, Resume: *resume, Retries: *retries}
	}
}

// PrintDegraded renders an artifact's degraded block the way every campaign
// CLI reports it: one line per permanently failed cell plus its ready-to-run
// repro command. It returns true when anything was printed, which the CLIs
// turn into a non-zero exit.
func PrintDegraded(w io.Writer, prog string, cells []artifact.DegradedCell) bool {
	for _, d := range cells {
		fmt.Fprintf(w, "%s: DEGRADED %s (%s after %d attempts): %s\n", prog, d.Name, d.Class, d.Attempts, d.Error)
		if d.Repro != "" {
			fmt.Fprintf(w, "%s:   repro: %s\n", prog, d.Repro)
		}
	}
	return len(cells) > 0
}
