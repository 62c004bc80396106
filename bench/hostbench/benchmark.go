package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// benchmarkDef is BENCHMARK.json: the workloads and metrics this program
// must emit, with each end-to-end metric's regression bound. The program
// reads it so that the file and the code cannot drift apart unnoticed.
type benchmarkDef struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Limits on BENCHMARK.json.
const (
	maxWorkloads  = 8
	maxEndToEnd   = 16
	maxPerLayer   = 128
	maxBound      = 0.25
	maxRunSeconds = 60
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadBenchmark reads BENCHMARK.json and checks it against the limits and
// against the workloads this program implements.
func loadBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var def benchmarkDef
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := def.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

func (d *benchmarkDef) validate() error {
	if d.RunSeconds < 1 || d.RunSeconds > maxRunSeconds {
		return fmt.Errorf("run_seconds %d, want 1 to %d", d.RunSeconds, maxRunSeconds)
	}
	if n := len(d.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2 to %d", n, maxWorkloads)
	}
	if n := len(d.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", n, maxEndToEnd)
	}
	if n := len(d.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	var listed []string
	for _, w := range d.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	impl := workloadNames()
	sort.Strings(impl)
	if strings.Join(listed, ",") != strings.Join(impl, ",") {
		return fmt.Errorf("lists workloads %v, the program implements %v", listed, impl)
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		if err := m.validate(use); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > maxBound {
			return fmt.Errorf("end-to-end metric %s: bound must be in [0, %g]", m.Name, maxBound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf(`end-to-end metrics lack setup_s with unit "s" and "better": "lower"`)
	}
	for _, m := range d.PerLayer {
		if err := m.validate(use); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s has a bound; only end-to-end metrics do", m.Name)
		}
	}
	return nil
}

func (m metricDef) validate(use func(string) error) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
	}
	return nil
}

// checkEmitted requires the emitted metrics to be exactly the listed ones,
// each with its listed unit.
func checkEmitted(want []metricDef, got map[string]metric) error {
	var missing, extra, units []string
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case g.Unit != m.Unit:
			units = append(units, fmt.Sprintf("%s in %s, listed in %s", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing)+len(extra)+len(units) > 0 {
		return fmt.Errorf("metrics drifted from %s: missing %v, not listed %v, unit mismatch %v",
			benchmarkPath, missing, extra, units)
	}
	return nil
}
