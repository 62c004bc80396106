package leakage

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"invisispec/internal/artifact"
)

// ReportSchema identifies the artifact format; readers refuse other
// versions.
const ReportSchema = "leakage-report/v1"

// Cell is one (attack, defense) entry of the verdict matrix. Everything
// but Error is deterministic: the simulations are single-goroutine and
// seeded, and the scanner aggregates by matrix index, so the same corpus
// and options produce byte-identical cells at any worker count.
type Cell struct {
	Attack   string `json:"attack"`
	Template string `json:"template"`
	Secret   int    `json:"secret"`
	Defense  string `json:"defense"`
	// Trials is how many trials completed and fed the distinguisher
	// (fewer than requested when some trials failed).
	Trials  int     `json:"trials"`
	Verdict Verdict `json:"verdict"`
	// Expected is the defense-outcome matrix's prediction
	// (AttackSpec.Expect); ExpectedLeak flags cells where that prediction
	// is a leak — Base rows, Meltdown under Spectre-model defenses, and
	// the annotated variant under TrustSafeAnnotations — so report
	// consumers can tell a designed leak from a regression.
	Expected     Verdict `json:"expected"`
	ExpectedLeak bool    `json:"expected_leak,omitempty"`
	// Violation marks a gate failure: a trial error, a verdict that
	// contradicts the expectation, or an expected leak that recovered the
	// wrong byte.
	Violation     bool    `json:"violation,omitempty"`
	RecoveredByte int     `json:"recovered_byte"`
	HitRate       float64 `json:"hit_rate"`
	HotRate       float64 `json:"hot_rate"`
	Margin        float64 `json:"margin"`
	SNR           float64 `json:"snr"`
	Confidence    float64 `json:"confidence"`
	MedianLatency float64 `json:"median_latency"`
	SecretLatency float64 `json:"secret_latency"`
	// Error is the first trial failure, when any trial failed. It can
	// carry nondeterministic detail (timeouts depend on host speed), but
	// any error already fails the gate, so determinism of the passing
	// artifact is preserved.
	Error string `json:"error,omitempty"`
}

// Report is a full leakage-scan artifact.
type Report struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Seed and Count identify a fuzzed corpus (Corpus(seed, count));
	// both zero for the fixed smoke corpus.
	Seed       int64      `json:"seed,omitempty"`
	Count      int        `json:"count,omitempty"`
	Trials     int        `json:"trials"`
	Thresholds Thresholds `json:"thresholds"`
	Defenses   []string   `json:"defenses"`
	Cells      []Cell     `json:"cells"`
	// Degraded lists the cells whose trials exhausted their retry budget
	// (campaign graceful degradation): the scan completed without them, the
	// CLI exits non-zero, and each entry carries a ready-to-run repro
	// command.
	Degraded []artifact.DegradedCell `json:"degraded,omitempty"`
	Host     *artifact.Host          `json:"host,omitempty"`
}

// DeterministicPayload returns a copy with the host block stripped — the
// bytes that must be identical across worker counts, kernel choices, and
// killed campaigns rerun over their cache. The chaos tests compare these.
func (r *Report) DeterministicPayload() *Report {
	cp := *r
	cp.Host = nil
	return &cp
}

// Violations returns the cells that fail the gate, in matrix order.
func (r *Report) Violations() []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if c.Violation {
			out = append(out, c)
		}
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("leakage: writing report JSON: %w", err)
	}
	return nil
}

// ReadJSON parses a report and validates its schema tag.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("leakage: reading report JSON: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("leakage: report JSON schema %q, want %q", r.Schema, ReportSchema)
	}
	return &r, nil
}

// cellMark renders one cell for the verdict table: the observed verdict,
// "*" when the matrix expects a leak there, "!" when the cell violates
// the gate.
func cellMark(c Cell) string {
	var s string
	switch c.Verdict {
	case VerdictLeak:
		s = "LEAK"
	case VerdictBlocked:
		s = "ok"
	default:
		s = "??"
	}
	if c.ExpectedLeak {
		s += "*"
	}
	if c.Violation {
		s += "!"
	}
	return s
}

// WriteTable prints the attack x defense verdict matrix the way
// cmd/leakscan shows it, with one row per attack and a legend.
func (r *Report) WriteTable(w io.Writer) {
	// Column order is the report's defense list; rows keep corpus order.
	byAttack := make(map[string]map[string]Cell)
	var attacks []string
	for _, c := range r.Cells {
		row, ok := byAttack[c.Attack]
		if !ok {
			row = make(map[string]Cell, len(r.Defenses))
			byAttack[c.Attack] = row
			attacks = append(attacks, c.Attack)
		}
		row[c.Defense] = c
	}
	wide := 6
	for _, a := range attacks {
		if len(a) > wide {
			wide = len(a)
		}
	}
	fmt.Fprintf(w, "%-*s", wide+2, "attack")
	for _, d := range r.Defenses {
		fmt.Fprintf(w, "%8s", d)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", wide+2+8*len(r.Defenses)))
	for _, a := range attacks {
		fmt.Fprintf(w, "%-*s", wide+2, a)
		for _, d := range r.Defenses {
			fmt.Fprintf(w, "%8s", cellMark(byAttack[a][d]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "LEAK = secret recovered, ok = no covert-channel signal, ?? = inconclusive")
	fmt.Fprintln(w, "*    = matrix expects a leak here (undefended baseline or designed threat-model gap)")
	fmt.Fprintln(w, "!    = VIOLATION: observed verdict contradicts the expectation (or trial error)")
}
