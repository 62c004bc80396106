// Command hostbench measures how fast the simulator runs on the host. Three
// workloads each stress a different layer; end-to-end metrics come from an
// untraced run and per-layer host time from a separate traced run. Every
// layer is timed from outside, around calls into public functions: sweeps
// run through campaign.Run → campaign.JobResults → runner.NewBench with cell
// bodies timed at campaign.Options.Exec, the leak scan through leakage.Scan
// with the same seam, and the traced run rebuilds each cell from the public
// constructors with a timer around every engine component.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload spec-compute --seed 1 --seconds 38 --trace 0
//	bash bench/run.sh --workload all --seed 7
//	bash bench/run.sh -compare 'before/*.json' 'after/*.json'
//
// Each run prints one "name value unit" line per metric, writes
// bench/out/<workload>-s<seed>[.trace].json, and ends with one JSON line
// holding correct, attempted, failed and metrics. bench/README.md lists the
// metrics and why each workload was chosen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// Paths are relative to the repository root, where bench/run.sh starts the
// program.
const (
	benchmarkPath = "BENCHMARK.json"
	expectedPath  = "bench/expected.json"
	outDir        = "bench/out"
)

// runTimeout bounds one workload run, whatever --seconds says, so a hung
// cell cannot keep the process alive.
const runTimeout = 170 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload to run, or all (each in its own process)")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 0, "host seconds each run spends measuring (0: "+benchmarkPath+"'s run_seconds)")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
		writeExp = flag.Bool("write-expected", false, "record the sweeps' row digests in "+expectedPath+" instead of checking them")
		compare  = flag.Bool("compare", false, "compare two sets of result files, given as two glob arguments")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceOn, *writeExp, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, traceOn int, writeExp, compare bool) error {
	def, err := loadBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two glob arguments: the before set and the after set")
		}
		return compareSets(os.Stdout, def, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds == 0 {
		seconds = def.RunSeconds
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	if traceOn != 0 && traceOn != 1 {
		return fmt.Errorf("--trace %d: must be 0 or 1", traceOn)
	}
	if name == "all" {
		return runAll(seed, seconds, traceOn, writeExp)
	}
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames())
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	r := newRun(ctx, name, seed, time.Duration(seconds)*time.Second, traceOn == 1, writeExp)
	if r.trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		stop, err := startProfile(filepath.Join(outDir, name+".cpu.pprof"))
		if err != nil {
			return err
		}
		r.stopProfile = stop
	}
	if err := w.run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if r.stopProfile != nil {
		if err := r.stopProfile(); err != nil {
			return err
		}
	}
	return r.report(os.Stdout, def)
}

// runAll runs every workload in its own process, one after another, so no
// workload inherits another's heap.
func runAll(seed int64, seconds, traceOn int, writeExp bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range workloadNames() {
		args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceOn)}
		if writeExp {
			args = append(args, "-write-expected")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// startProfile starts a CPU profile; the returned function stops it and
// closes the file. Core stages are private to internal/core, so the profile
// is where a traced run splits host time below the component level.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
