// Package invisispec is a from-scratch Go reproduction of "InvisiSpec:
// Making Speculative Execution Invisible in the Cache Hierarchy" (MICRO
// 2018): a cycle-level multicore simulator with an out-of-order core that
// executes wrong paths, a directory-MESI cache hierarchy, and the paper's
// speculative-buffer defense. See README.md for a tour, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for paper-vs-measured results.
//
// The simulator itself lives under internal/; the executables under cmd/
// (invisisim, leakscan, benchtable) and the programs under examples/ are
// the public surface.
package invisispec
