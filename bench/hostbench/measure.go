package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/sim"
)

// Each measured round builds every cell's machine at least once, and again
// until setupSlice is spent, so a workload whose machines build in
// milliseconds still gets enough builds for a steady median.
const setupSlice = 100 * time.Millisecond

const mib = 1 << 20

// measureLoop runs rounds (set-up builds then a fast and a stepped pass, or
// one traced pass) for the budget, to the nearest whole round, and at least
// one: it starts another round while at least half of one still fits. Only
// whole passes are measured, so every pass covers the same cells. Rounding
// to the nearest, rather than stopping while a whole round still fits,
// keeps a workload whose round takes a third of the budget from getting
// two rounds in a slow run and three in a fast one.
//
// A shared host's speed drifts over seconds, up and down by a third and
// more, so every metric is a median over samples spread across the whole
// run: a spell, fast or slow, moves it only when it covers half the run.
func (r *run) measureLoop(round func() error) error {
	start := time.Now()
	for {
		roundStart := time.Now()
		if err := round(); err != nil {
			return err
		}
		r.samples["rounds"]++
		if time.Since(start)+time.Since(roundStart)/2 > r.budget {
			return nil
		}
	}
}

// timed runs a timed segment and returns the host's slowdown over it, by
// which the segment's times are divided; 1 in a traced run.
func (r *run) timed(fn func() error) (float64, error) {
	if r.host == nil {
		return 1, fn()
	}
	return r.host.around(fn)
}

// cellMedians returns, for every cell, its median time over the passes.
// The sum over cells of these medians draws on samples from every part of
// the run, which steadies it more than the median of the passes' sums.
func cellMedians(passes [][]float64) []float64 {
	out := make([]float64, len(passes[0]))
	ns := make([]float64, len(passes))
	for i := range out {
		for p := range passes {
			ns[p] = passes[p][i]
		}
		out[i] = median(ns)
	}
	return out
}

// setWorkers lets the Go runtime use as many CPUs as the run has campaign
// workers. A campaign that fills the host runs one worker per CPU, so its
// garbage collector has no idle CPU to run on; giving the benchmark spare
// CPUs would move GC work off the measured ones and make host time depend
// on what else the machine is doing.
func setWorkers(n int) {
	runtime.GOMAXPROCS(n)
}

// timedExec is a campaign Exec hook that runs the cell body in-process, as
// an ordinary attempt does, and hands its host time and value to record.
// record is called from the campaign's workers and must only write state
// owned by that one cell.
func timedExec(record func(c campaign.Cell, ns int64, v any) error) func(context.Context, campaign.Cell, string) (json.RawMessage, error) {
	return func(ctx context.Context, c campaign.Cell, _ string) (json.RawMessage, error) {
		start := time.Now()
		v, err := c.Run(ctx)
		ns := time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		if err := record(c, ns, v); err != nil {
			return nil, err
		}
		return json.Marshal(v)
	}
}

// cellBuild builds one cell's machine the way the cell body does. Cells of
// one group build machines of the same size.
type cellBuild struct {
	group string
	build func() (*sim.Machine, error)
}

// measureMachine reports machine_mb, the largest live heap one built
// machine holds: one machine per group, with a GC before and after the
// build.
func (r *run) measureMachine(builds []cellBuild) error {
	var maxLive uint64
	seen := map[string]bool{}
	for _, b := range builds {
		if seen[b.group] {
			continue
		}
		seen[b.group] = true
		before := liveHeap()
		m, err := b.build()
		if err != nil {
			return fmt.Errorf("building %s: %w", b.group, err)
		}
		if after := liveHeap(); after > before && after-before > maxLive {
			maxLive = after - before
		}
		runtime.KeepAlive(m)
	}
	r.set("machine_mb", float64(maxLive)/mib, "MiB")
	r.samples["setup_builds_per_round"] = len(builds)
	return nil
}

// setupRounds times build-only rounds, each building every cell's machine
// once, until setupSlice is spent, and returns each round's total in
// reference-host seconds. Each build is timed alone, after a GC, so that
// garbage the previous builds left does not make the collector run inside
// it.
func (r *run) setupRounds(builds []cellBuild) ([]float64, error) {
	var rounds []float64
	f, err := r.timed(func() error {
		start := time.Now()
		for len(rounds) == 0 || time.Since(start) < setupSlice {
			var total time.Duration
			for _, b := range builds {
				runtime.GC()
				t0 := time.Now()
				m, err := b.build()
				total += time.Since(t0)
				if err != nil {
					return fmt.Errorf("building %s: %w", b.group, err)
				}
				runtime.KeepAlive(m)
			}
			rounds = append(rounds, total.Seconds())
		}
		return nil
	})
	for i := range rounds {
		rounds[i] /= f
	}
	return rounds, err
}

// setSetup reports setup_s, the median build-only round.
func (r *run) setSetup(rounds []float64) {
	r.set("setup_s", median(rounds), "s")
	r.samples["setup_rounds"] = len(rounds)
}

// noteHost notes the host's slowdown over the run and the median raw wall
// time of a fast pass, the wall_s the run measured before scaling.
func (r *run) noteHost(rawWalls []float64) {
	q1, q3 := quartiles(r.host.factors)
	r.notes = append(r.notes,
		fmt.Sprintf("host slowdown against the reference host: median %s, quartiles %s-%s over %d segments",
			formatValue(median(r.host.factors)), formatValue(q1), formatValue(q3), len(r.host.factors)),
		fmt.Sprintf("raw wall_s %s s", formatValue(median(rawWalls))))
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memSample is a snapshot of the Go runtime's allocation and GC counters.
type memSample struct {
	totalAlloc, mallocs, numGC, pauseNS uint64
	gcCPU, totalCPU                     float64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return memSample{
		totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs,
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
	}
}

// memDelta is what the runtime did between two snapshots.
type memDelta struct {
	allocMiB, kobjects, gcCycles, gcPauseMS, gcCPUFraction float64
}

func (s memSample) since(prev memSample) memDelta {
	d := memDelta{
		allocMiB:  float64(s.totalAlloc-prev.totalAlloc) / mib,
		kobjects:  float64(s.mallocs-prev.mallocs) / 1000,
		gcCycles:  float64(s.numGC - prev.numGC),
		gcPauseMS: float64(s.pauseNS-prev.pauseNS) / 1e6,
	}
	if cpu := s.totalCPU - prev.totalCPU; cpu > 0 {
		d.gcCPUFraction = (s.gcCPU - prev.gcCPU) / cpu
	}
	return d
}

// setHeap reports the median per-pass allocation of the fast passes.
func (r *run) setHeap(deltas []memDelta) {
	var alloc, objs []float64
	for _, d := range deltas {
		alloc = append(alloc, d.allocMiB)
		objs = append(objs, d.kobjects)
	}
	r.set("heap_alloc_mb", median(alloc), "MiB")
	r.set("heap_objects_k", median(objs), "kobj")
}

// setGo reports the runtime's GC work during one pass.
func (r *run) setGo(d memDelta) {
	r.set("go.gc_cycles", d.gcCycles, "count")
	r.set("go.gc_pause_ms", d.gcPauseMS, "ms")
	r.set("go.gc_cpu_fraction", d.gcCPUFraction, "ratio")
}

// setCampaignOverhead reports the part of a pass's wall time its workers
// did not spend in cell bodies.
func (r *run) setCampaignOverhead(wall time.Duration, cellNS []int64, workers int) {
	r.set("campaign.overhead_s", wall.Seconds()-float64(sum(cellNS))/1e9/float64(workers), "s")
}

// setCellTimes reports the median over cells of each cell's median time,
// and notes the highest tail percentile of all timed repetitions that has
// at least ten samples beyond it.
func (r *run) setCellTimes(passes [][]float64) {
	r.set("cell_ms_p50", median(cellMedians(passes))/1e6, "ms")
	var all []float64
	for _, p := range passes {
		for _, ns := range p {
			all = append(all, ns/1e6)
		}
	}
	r.samples["cell_repetitions"] = len(all)
	if p, v, ok := tailPercentile(all); ok {
		r.notes = append(r.notes, fmt.Sprintf("cell_ms_p%s %s ms over all repetitions (n=%d)", formatValue(p), formatValue(v), len(all)))
	}
}

// nsToMS converts per-cell nanoseconds to milliseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n) / 1e6
	}
	return out
}

func sum[T int64 | float64](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}
