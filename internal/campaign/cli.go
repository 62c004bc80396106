package campaign

// Shared CLI surface: every campaign CLI (benchtable, leakscan, conformfuzz)
// exposes the same resilience flags, so the caching and retry semantics
// are uniform across artifacts.

import (
	"flag"
	"fmt"
	"io"

	"invisispec/internal/artifact"
	"invisispec/internal/memo"
)

// Flags holds the uniform resilience flags: -cache, the memo store that
// keeps finished cells, and -retries.
type Flags struct {
	cache   *string
	retries *int
	store   *memo.Store
}

// AddFlags registers the uniform resilience flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		cache:   fs.String("cache", "", "memo store directory: cells stored there do not run, and every newly computed cell is stored (\"\" = no cache; an empty or missing directory starts fresh)"),
		retries: fs.Int("retries", 2, "re-runs per cell after a transient failure (deterministic failures never retry)"),
	}
}

// Options assembles the Options the flags selected after fs.Parse, opening
// the -cache store on the first call.
func (f *Flags) Options() (Options, error) {
	opts := Options{Retries: *f.retries}
	if *f.cache == "" {
		return opts, nil
	}
	if f.store == nil {
		store, err := memo.Open(*f.cache)
		if err != nil {
			return Options{}, err
		}
		f.store = store
	}
	opts.Exec = CacheExec(f.store, nil, nil)
	return opts, nil
}

// Close warns on w, as prog, when the -cache store counted entries that
// failed their integrity check or could not be written: a cell that was
// not written runs again next time. A store that was never opened is a
// no-op.
func (f *Flags) Close(w io.Writer, prog string) {
	if f.store == nil {
		return
	}
	if n := f.store.Stats().Corrupt; n > 0 {
		fmt.Fprintf(w, "%s: warning: -cache %s: %d entries failed their integrity check or could not be written; a cell not written runs again next time\n", prog, *f.cache, n)
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
