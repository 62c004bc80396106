// Package defense names the speculative-execution countermeasures the
// simulator models. A scheme is one row of plain data: the point at which
// a speculative load may become visible, plus a few front-end and
// retirement flags. The core answers every policy question from the row
// itself (core.Core.visible evaluates the visibility point), so a scheme
// cannot mutate the pipeline or see anything a real hardware policy block
// could not, and the stepped/fast kernel equivalence and the
// golden-interpreter conformance proofs cover every row at once.
//
// Every consumer — config, the harness sweeps, the leakage scanner, the
// conformance fuzzer, the kernel-equivalence oracle, the CLIs — enumerates
// schemes with All and resolves names with Lookup instead of switching on
// an enum, so adding a row is enough for every matrix and CI gate to pick
// the scheme up (DESIGN.md §13).
package defense

import (
	"fmt"
	"sort"
	"strings"
)

// Visibility is the point at which a speculative load may become visible:
// issue as an ordinary cache access or, once issued invisibly as an Unsafe
// Speculative Load (USL), start its validation or exposure.
type Visibility uint8

// The visibility points. Every point must hold at the ROB head, or
// retirement deadlocks.
const (
	Always        Visibility = iota // loads are ordinary accesses; nothing is invisible
	AfterBranches                   // every older control instruction has resolved (Spectre model, §V-A)
	Unsquashable                    // nothing older can squash the load (Futuristic model, §VIII)
	AtHead                          // the load is the ROB head
)

// Scheme is one speculation countermeasure.
type Scheme struct {
	// Name is the registry key and the label every artifact, report and
	// CLI flag uses ("Base", "IS-Fu", "SpecBox", ...).
	Name string
	// Visible is the visibility point. Any point but Always issues
	// speculative loads as USLs through the speculative buffer.
	Visible Visibility
	// FenceBeforeLoads inserts a fence before every load at dispatch;
	// FenceAfterBranches inserts one after every mispredictable control
	// instruction.
	FenceBeforeLoads, FenceAfterBranches bool
	// ValidationBlocksYounger makes a USL awaiting validation hold back
	// younger USLs' validations and exposures (the Futuristic model's
	// ordering rule; config.Machine.OverlapValExp false imposes it on
	// every scheme).
	ValidationBlocksYounger bool
	// DefersInterrupts holds off external interrupts while USLs are in
	// flight (§VI-D).
	DefersInterrupts bool
	// StallAtBlocks stalls dispatch at a basic-block leader while any
	// mispredictable control instruction is unresolved.
	StallAtBlocks bool
	// CountsLabels counts the speculation labels cleared as USLs retire
	// and flushed as squashes discard them (stats.Core.SpecLabels*).
	CountsLabels bool
}

// InvisibleLoads reports whether speculative loads issue as USLs.
func (s Scheme) InvisibleLoads() bool { return s.Visible != Always }

// table holds every registered scheme in matrix order: the paper's five
// Table V configurations, then the two post-paper schemes (PAPERS.md).
// Every matrix iterates it, so the order is part of every deterministic
// artifact's byte layout.
var table = []Scheme{
	// The undefended out-of-order baseline every figure normalizes against.
	{Name: "Base"},
	// Fe-Sp: nothing speculates past an unresolved branch.
	{Name: "Fe-Sp", FenceAfterBranches: true},
	// InvisiSpec under the Spectre model.
	{Name: "IS-Sp", Visible: AfterBranches},
	// Fe-Fu: the conservative baseline for the Futuristic model.
	{Name: "Fe-Fu", FenceBeforeLoads: true},
	// InvisiSpec under the Futuristic model.
	{Name: "IS-Fu", Visible: Unsquashable, ValidationBlocksYounger: true, DefersInterrupts: true},
	// SpecBox-style label quarantine: every speculative fill is labelled
	// and held in the speculative buffer until its load reaches the ROB
	// head, so no transient load of any squash cause perturbs the caches.
	{Name: "SpecBox", Visible: AtHead, ValidationBlocksYounger: true, DefersInterrupts: true, CountsLabels: true},
	// BasicBlocker-style ISA-assisted block speculation control: loads
	// inside the current block execute visibly, trading same-block
	// exposure for zero load-path hardware.
	{Name: "BasicBlocker", StallAtBlocks: true},
}

// Register appends a scheme to the table under CheckName's rule. The
// built-in rows need no registration; tests use it to add schemes of their
// own.
func Register(s Scheme) error {
	_, lookupErr := Lookup(s.Name)
	if err := CheckName("defense", "scheme", s.Name, lookupErr == nil); err != nil {
		return err
	}
	table = append(table, s)
	return nil
}

// CheckName is the name rule of every registry in the repo, this one and
// internal/workload's: a name must be non-empty, free of the separators the
// comma-separated -defenses and -names flags split on, and not yet taken.
// pkg and kind word the error ("defense", "scheme").
func CheckName(pkg, kind, name string, taken bool) error {
	switch {
	case name == "":
		return fmt.Errorf("%s: Register: %s has empty name", pkg, kind)
	case strings.ContainsAny(name, ", \t\n"):
		return fmt.Errorf("%s: Register: name %q contains separator characters", pkg, name)
	case taken:
		return fmt.Errorf("%s: Register: duplicate %s name %q", pkg, kind, name)
	}
	return nil
}

// UnknownName is the error a registry's Lookup returns for an unregistered
// name. It lists the registered names, sorted, so a CLI typo is
// self-diagnosing.
func UnknownName(pkg, kind, name string, registered []string) error {
	known := append([]string(nil), registered...)
	sort.Strings(known)
	return fmt.Errorf("%s: unknown %s %q (registered: %s)", pkg, kind, name, strings.Join(known, ", "))
}

// All returns a copy of every registered scheme in matrix order.
func All() []Scheme {
	return append([]Scheme(nil), table...)
}

// Names returns every registered scheme name in matrix order.
func Names() []string {
	names := make([]string, len(table))
	for i, s := range table {
		names[i] = s.Name
	}
	return names
}

// Lookup resolves a scheme by name. The error lists the registered names
// so CLI messages are self-documenting.
func Lookup(name string) (Scheme, error) {
	for _, s := range table {
		if s.Name == name {
			return s, nil
		}
	}
	return Scheme{}, UnknownName("defense", "scheme", name, Names())
}
