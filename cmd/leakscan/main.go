// Command leakscan is the security regression gate: it scans a corpus of
// transient-attack variants (internal/leakage) against every defense
// configuration, prints the attack x defense verdict table, optionally
// writes the deterministic leakage-report/v1 JSON artifact, and exits
// non-zero when any cell violates the defense-outcome matrix — a secure
// configuration that leaks, an undefended baseline that fails to leak
// (the corpus went stale), or a trial that errored.
//
// Corpora:
//
//	-corpus smoke  the fixed ten-variant CI corpus (default)
//	-corpus fuzz   -n variants generated deterministically from -seed
//
// Two other modes replace the corpus scan: -search runs the feedback-driven
// attack search, and -fig5 reproduces the paper's Figure 5 (the Spectre
// variant-1 PoC on Base and IS-Sp with -secret, per-line latencies with
// -full).
//
// The scan runs on the resilient execution layer (internal/campaign):
// -cache DIR keeps every finished trial in a memo store, so a rerun over
// the same directory (after a kill, say) skips the trials stored there
// and reads their latencies back byte-identically, and -retries re-runs
// transient failures.
//
// The report's deterministic payload is byte-identical at any -jobs
// width; host facts (wall time, worker count) are quarantined in the
// optional host block (-host).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/leakage"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

func main() {
	var (
		corpus   = flag.String("corpus", "smoke", "attack corpus: smoke, fuzz, or none (imported cells only)")
		seed     = flag.Int64("seed", 1, "fuzz corpus seed (-corpus fuzz)")
		n        = flag.Int("n", 12, "fuzz corpus size (-corpus fuzz)")
		trials   = flag.Int("trials", 3, "trials per (attack, defense) cell")
		jobs     = flag.Int("jobs", 0, "parallel workers (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-trial wall-clock timeout (0 = none)")
		jsonPath = flag.String("json", "", "write the leakage-report/v1 JSON artifact here")
		name     = flag.String("name", "", "report name (defaults to the corpus name)")
		host     = flag.Bool("host", false, "include the nondeterministic host block in the JSON artifact")
		verbose  = flag.Bool("v", false, "print per-cell progress lines to stderr")
		defsF    = flag.String("defenses", "", "comma-separated defense-scheme subset for the matrix columns (default: all registered; see invisisim -listdefenses)")
		impDir   = flag.String("import", "", "import *.trace files from this directory as workloads before the scan")
		imported = flag.String("imported", "", "comma-separated imported-attack cells, each name[:secret] (secret defaults to 84, the canonical Spectre); scanned as canonical-Spectre specs replaying the named workload")

		search       = flag.Bool("search", false, "run the feedback-driven attack search instead of a corpus scan (seeded hill-climb over template parameters; see -search-budget)")
		searchBudget = flag.Int("search-budget", 8, "candidates evaluated per search lane, including the seed (-search)")
		searchSeeds  = flag.String("search-classes", "", "comma-separated template classes to search (spectre, spectre-btb, spectre-rsb, ssb, llcsb-contend); default: all")
		blind        = flag.Bool("blind", false, "mutate from the immutable seed instead of hill-climbing (the fuzz baseline; -search)")
		promoteDir   = flag.String("promote", "", "write minimized find reproducers as replayable *.trace files into this directory (-search)")
		shrinkBudget = flag.Int("shrink-budget", 0, "ddmin oracle evaluations per find minimization (0 = default 512; -search)")

		fig5   = flag.Bool("fig5", false, "reproduce Figure 5 instead of a corpus scan: the Spectre v1 PoC on Base and IS-Sp, exit 1 if the outcome contradicts the paper")
		secret = flag.Int("secret", 84, "secret byte value, 1-255 (-fig5; the paper uses 84)")
		full   = flag.Bool("full", false, "print all probe latencies from a single fault-free run, not only the summary (-fig5)")
	)
	campaignFlags := campaign.AddFlags(flag.CommandLine)
	flag.Parse()

	if *impDir != "" {
		if _, err := workload.ImportDir(*impDir); err != nil {
			fmt.Fprintln(os.Stderr, "leakscan:", err)
			os.Exit(2)
		}
	}
	if *fig5 {
		os.Exit(runFig5(*secret, *trials, *jobs, *timeout, *full))
	}
	copts, err := campaignFlags.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		os.Exit(2)
	}
	if *search {
		defs, err := config.ParseDefenses(*defsF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leakscan:", err)
			os.Exit(2)
		}
		searchName := *name
		if searchName == "" {
			searchName = "search"
		}
		code := runSearch(searchConfig{
			seed:         *seed,
			budget:       *searchBudget,
			classes:      *searchSeeds,
			blind:        *blind,
			defenses:     defs,
			trials:       *trials,
			jobs:         *jobs,
			timeout:      *timeout,
			jsonPath:     *jsonPath,
			promoteDir:   *promoteDir,
			shrinkBudget: *shrinkBudget,
			name:         searchName,
			verbose:      *verbose,
			campaign:     copts,
		})
		campaignFlags.Close(os.Stderr, "leakscan")
		os.Exit(code)
	}

	defs, err := config.ParseDefenses(*defsF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		os.Exit(2)
	}

	var specs []leakage.AttackSpec
	switch *corpus {
	case "smoke":
		specs = leakage.SmokeCorpus()
	case "fuzz":
		specs = leakage.Corpus(*seed, *n)
	case "none":
		// Imported cells only (-imported).
	default:
		fmt.Fprintf(os.Stderr, "leakscan: unknown corpus %q (want smoke, fuzz, or none)\n", *corpus)
		os.Exit(2)
	}
	importedSpecs, err := parseImported(*imported)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		os.Exit(2)
	}
	specs = append(specs, importedSpecs...)
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "leakscan: empty scan (-corpus none needs -imported cells)")
		os.Exit(2)
	}
	reportName := *name
	if reportName == "" {
		reportName = *corpus
	}

	opts := leakage.ScanOptions{
		Defenses: defs,
		Trials:   *trials,
		Jobs:     *jobs,
		Timeout:  *timeout,
		Name:     reportName,
		Campaign: copts,
		Repro: func(ts leakage.TrialSpec) string {
			// One scan of just the failing attack reproduces all its trials
			// (the per-trial fault seeds derive from the cell identity, not
			// from which trials ran).
			if *corpus == "fuzz" {
				return fmt.Sprintf("go run ./cmd/leakscan -corpus fuzz -seed %d -n %d -trials %d -v", *seed, *n, *trials)
			}
			return fmt.Sprintf("go run ./cmd/leakscan -corpus smoke -trials %d -v", *trials)
		},
	}
	if *verbose {
		opts.Progress = os.Stderr
	}
	start := time.Now()
	rep, err := leakage.Scan(context.Background(), specs, opts)
	campaignFlags.Close(os.Stderr, "leakscan")
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		os.Exit(2)
	}
	if *corpus == "fuzz" {
		rep.Seed, rep.Count = *seed, *n
	}
	if *host {
		rep.Host = artifact.NewHost(time.Since(start), *jobs)
	}

	fmt.Printf("leakscan: %d attacks x %d defenses, %d trials each\n\n",
		len(specs), len(rep.Defenses), rep.Trials)
	rep.WriteTable(os.Stdout)

	if *jsonPath != "" {
		if err := artifact.Write(*jsonPath, func(w io.Writer) error {
			return leakage.WriteJSON(w, rep)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "leakscan:", err)
			os.Exit(2)
		}
		fmt.Printf("\nreport written to %s\n", *jsonPath)
	}

	degraded := campaign.PrintDegraded(os.Stderr, "leakscan", rep.Degraded)
	if v := rep.Violations(); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "\nleakscan: %d VIOLATION(S):\n", len(v))
		for _, c := range v {
			detail := fmt.Sprintf("observed %s, expected %s", c.Verdict, c.Expected)
			if c.Error != "" {
				detail = "trial error: " + c.Error
			} else if c.Expected == leakage.VerdictLeak && c.Verdict == leakage.VerdictLeak {
				detail = fmt.Sprintf("leak recovered byte %d, want %d", c.RecoveredByte, c.Secret)
			}
			fmt.Fprintf(os.Stderr, "  %s under %s: %s\n", c.Attack, c.Defense, detail)
		}
		os.Exit(1)
	}
	if degraded {
		os.Exit(1)
	}
	fmt.Println("\nleakscan: PASS — every defense blocks what it claims to block, every expected leak observed")
}

// searchConfig carries the parsed -search flags.
type searchConfig struct {
	seed         int64
	budget       int
	classes      string
	blind        bool
	defenses     []config.Defense
	trials       int
	jobs         int
	timeout      time.Duration
	jsonPath     string
	promoteDir   string
	shrinkBudget int
	name         string
	verbose      bool
	campaign     campaign.Options
}

// runSearch drives the feedback-driven attack search (-search): seeded
// hill-climb lanes over the template classes, every candidate scanned
// against the defense matrix, finds (a defense leaking where the matrix
// says blocked) ddmin-minimized and promoted to replayable traces. The
// exit code mirrors the scan gate: 1 when the search broke a defense, 0
// when every candidate behaved as the matrix predicts.
func runSearch(cfg searchConfig) int {
	seeds, err := searchSeedSpecs(cfg.classes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		return 2
	}
	opts := leakage.SearchOptions{
		Seed:         cfg.seed,
		Budget:       cfg.budget,
		Seeds:        seeds,
		Defenses:     cfg.defenses,
		Trials:       cfg.trials,
		Jobs:         cfg.jobs,
		Timeout:      cfg.timeout,
		Campaign:     cfg.campaign,
		Name:         cfg.name,
		Blind:        cfg.blind,
		ShrinkBudget: cfg.shrinkBudget,
	}
	if cfg.verbose {
		opts.Progress = os.Stderr
	}
	rep, traces, err := leakage.Search(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		return 2
	}

	mode := "hill-climb"
	if rep.Blind {
		mode = "blind fuzz"
	}
	fmt.Printf("leakscan search: %d lanes x %d candidates (%s, seed %d), %d trials/cell vs %s\n\n",
		len(rep.Best), rep.Budget, mode, rep.Seed, rep.Trials, strings.Join(rep.Defenses, ","))
	for _, s := range rep.Steps {
		marks := ""
		if s.Accepted {
			marks += " *"
		}
		if s.Repeat {
			marks += " (repeat)"
		}
		fmt.Printf("  [%s] iter %d: %-36s snr %7.2f best %7.2f%s\n",
			s.Class, s.Iter, s.Attack, s.Score, s.Best, marks)
	}
	fmt.Println("\nlane bests:")
	for _, b := range rep.Best {
		fmt.Printf("  %-32s -> %-36s snr %.2f\n", b.Class, b.Attack, b.Score)
	}

	if cfg.jsonPath != "" {
		if err := artifact.Write(cfg.jsonPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "leakscan:", err)
			return 2
		}
		fmt.Printf("\nsearch report written to %s\n", cfg.jsonPath)
	}
	if cfg.promoteDir != "" && len(traces) > 0 {
		if err := os.MkdirAll(cfg.promoteDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "leakscan:", err)
			return 2
		}
		for _, tr := range traces {
			path := filepath.Join(cfg.promoteDir, tr.Name+".trace")
			if err := trace.WriteFile(path, tr); err != nil {
				fmt.Fprintln(os.Stderr, "leakscan:", err)
				return 2
			}
			fmt.Printf("promoted reproducer written to %s\n", path)
		}
	}

	if len(rep.Finds) > 0 {
		fmt.Fprintf(os.Stderr, "\nleakscan search: %d FIND(S) — defenses broken by searched attacks:\n", len(rep.Finds))
		for _, f := range rep.Finds {
			detail := fmt.Sprintf("snr %.2f", f.SNR)
			if f.Minimized {
				detail += fmt.Sprintf(", minimized %d -> %d insts", f.ShrinkFrom, f.ShrinkTo)
			}
			if f.TraceName != "" {
				detail += ", trace " + f.TraceName
			}
			if f.Note != "" {
				detail += " (" + f.Note + ")"
			}
			fmt.Fprintf(os.Stderr, "  %s leaks under %s: %s\n", f.Attack, f.Defense, detail)
		}
		return 1
	}
	fmt.Println("\nleakscan search: PASS — no searched candidate broke a defense")
	return 0
}

// searchSeedSpecs resolves -search-classes to lane seed specs: empty means
// every searchable class, otherwise a comma-separated template-name subset
// of the canonical seeds.
func searchSeedSpecs(classes string) ([]leakage.AttackSpec, error) {
	all := leakage.DefaultSearchSeeds()
	if classes == "" {
		return all, nil
	}
	byTemplate := map[string]leakage.AttackSpec{}
	var names []string
	for _, s := range all {
		byTemplate[s.Template.String()] = s
		names = append(names, s.Template.String())
	}
	var seeds []leakage.AttackSpec
	for _, c := range strings.Split(classes, ",") {
		c = strings.TrimSpace(c)
		s, ok := byTemplate[c]
		if !ok {
			return nil, fmt.Errorf("unknown -search-classes entry %q (want a subset of %s)", c, strings.Join(names, ","))
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// parseImported turns the -imported list into attack specs: each entry is
// name[:secret], scanned as the canonical Spectre spec (16 rounds, 256x64
// probe, both flushes) replaying the named imported workload — the
// recording this matches is `traceconv -record spectre` (secret 84) or a
// re-parameterized SpectreV1With dump whose secret is given after the
// colon. The expected-outcome matrix is driven by those spec parameters,
// so a mismatched recording shows up as a verdict violation.
func parseImported(list string) ([]leakage.AttackSpec, error) {
	if list == "" {
		return nil, nil
	}
	var specs []leakage.AttackSpec
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		name, secretStr, hasSecret := strings.Cut(item, ":")
		secret := 84
		if hasSecret {
			v, err := strconv.Atoi(secretStr)
			if err != nil || v < 1 || v > 255 {
				return nil, fmt.Errorf("bad -imported entry %q: secret must be 1..255", item)
			}
			secret = v
		}
		if _, err := workload.Lookup(name); err != nil {
			return nil, err
		}
		specs = append(specs, leakage.CanonicalSpectreSpec(byte(secret)).ViaWorkload(name))
	}
	return specs, nil
}
