package workload

// The registry maps workload names to program factories, mirroring the
// defense registry: registration order is preserved, All() is the
// canonical workload enumeration, and every matrix (bench sweep, leakage
// scan, conformance fuzz, simserver jobs) resolves names through Lookup
// instead of per-CLI switches. Imported traces register here at runtime
// and participate in every matrix identically to the built-in kernels.

import (
	"fmt"

	"invisispec/internal/defense"
	"invisispec/internal/isa"
)

// Class partitions the registry along the axes the matrices select on:
// the bench suites sweep ClassBench, the leakage scanner targets
// ClassAttack programs, and ClassImported marks trace-derived workloads
// loaded at runtime (never part of a default suite — their presence must
// not shift the byte layout of existing artifacts).
type Class int

// Workload classes.
const (
	ClassBench    Class = iota // synthetic SPEC/PARSEC-like kernels
	ClassAttack                // transient-execution attack programs
	ClassImported              // replayable traces loaded via ImportDir
)

// String names the class for listings and error messages.
func (c Class) String() string {
	switch c {
	case ClassBench:
		return "bench"
	case ClassAttack:
		return "attack"
	case ClassImported:
		return "imported"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Workload is one named entry every matrix can run: a factory for the
// per-core programs plus the metadata the harnesses need to size the
// machine. Programs must be deterministic — two calls with the same core
// count return byte-equivalent programs, which is what keeps bench
// artifacts identical across workers and cached cells valid.
type Workload interface {
	// Name is the registry key and the name campaign cell keys carry;
	// it must stay stable across runs for memoization to hold.
	Name() string
	// Class selects which default suites and matrices include the entry.
	Class() Class
	// DefaultCores is the machine size the workload was designed (or
	// recorded) for; MeasureWorkload sizes config.Default with it.
	DefaultCores() int
	// Programs builds one program per core. Implementations reject core
	// counts they cannot honour (e.g. an imported trace replays only at
	// its recorded width).
	Programs(cores int) ([]*isa.Program, error)
}

var registry struct {
	byName map[string]Workload
	order  []Workload
}

// Register adds a workload to the registry under the name rule the defense
// registry applies too (defense.CheckName). Built-in kernels register from
// init via MustRegister; the error form exists for runtime registration
// (imported traces) and so tests can exercise the rejection paths without
// panics.
func Register(w Workload) error {
	name := w.Name()
	_, taken := registry.byName[name]
	if err := defense.CheckName("workload", "workload", name, taken); err != nil {
		return err
	}
	if registry.byName == nil {
		registry.byName = make(map[string]Workload)
	}
	registry.byName[name] = w
	registry.order = append(registry.order, w)
	return nil
}

// MustRegister is Register for init-time use; a bad registration is a
// programming error and panics.
func MustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// All returns every registered workload in registration order (the 23
// SPEC kernels, the 9 PARSEC kernels, the attack programs, then runtime
// imports in import order). The returned slice is a copy.
func All() []Workload {
	out := make([]Workload, len(registry.order))
	copy(out, registry.order)
	return out
}

// Names returns every registered workload name in registration order.
func Names() []string {
	names := make([]string, len(registry.order))
	for i, w := range registry.order {
		names[i] = w.Name()
	}
	return names
}

// Lookup resolves a workload by name. The error lists the registered
// names so CLI messages are self-documenting.
func Lookup(name string) (Workload, error) {
	if w, ok := registry.byName[name]; ok {
		return w, nil
	}
	return nil, defense.UnknownName("workload", "workload", name, Names())
}

// SuiteNames returns one figure axis of the bench suite in paper order:
// the single-core SPEC kernels (parsec=false) or the multi-core PARSEC
// kernels (parsec=true). Attack and imported workloads are part of
// neither default suite — they are selected explicitly by name — so
// runtime imports cannot shift default artifact layouts.
func SuiteNames(parsec bool) []string {
	var names []string
	for _, w := range registry.order {
		if w.Class() != ClassBench {
			continue
		}
		if (w.DefaultCores() > 1) == parsec {
			names = append(names, w.Name())
		}
	}
	return names
}
