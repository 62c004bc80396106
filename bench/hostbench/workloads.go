package main

import (
	"invisispec/internal/config"
	"invisispec/internal/runner"
)

// benchWorkload is one benchmark workload: a fixed set of cells, drawn from
// the seed, measured end to end or traced.
type benchWorkload struct {
	name string
	run  func(r *run) error
}

// Cell sets are sized so that one round, set-up builds and a fast and a
// stepped pass over every cell, takes two to five seconds on a 2-vCPU
// host: a run then repeats each cell often enough, at times spread across
// the run, for its median to be steady.
var benchWorkloads = []benchWorkload{
	// 32 KB working sets stay cache-resident, so core ticks dominate and
	// setup is negligible. gobmk is left out: it simulates identically to
	// sjeng.
	{"spec-compute", sweep{matrix: runner.Matrix(
		[]string{"hmmer", "gamess", "namd", "sjeng"}, false, tso,
		[]config.Defense{config.Base, config.ISSpectre, config.ISFuture, config.FenceSpectre}, nil, 2000, 12000)}.run},
	// Nine components tick per cycle with lock sharing through the
	// coherent LLC, and few cycles are skipped.
	{"parsec-8core", sweep{matrix: runner.Matrix(
		[]string{"canneal", "fluidanimate"}, true, tso,
		[]config.Defense{config.Base, config.ISFuture}, nil, 4000, 12000)}.run},
	{"leak-scan", leakScan{}.run},
}

var tso = []config.Consistency{config.TSO}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}
