// Package config defines the simulated machine parameters (Table IV of the
// paper) and the processor-configuration selection, plus the memory
// consistency model selection and InvisiSpec feature toggles used by the
// ablation benchmarks. Defense names resolve through the internal/defense
// registry: the paper's five Table V configurations plus every registered
// countermeasure scheme.
package config

import (
	"fmt"
	"strings"

	"invisispec/internal/bpred"
	"invisispec/internal/defense"
	"invisispec/internal/isa"
)

// Consistency selects the memory consistency model the core implements.
type Consistency int

// Consistency models evaluated in the paper.
const (
	TSO Consistency = iota // total store order (x86-like)
	RC                     // release consistency
)

// String returns the model name.
func (c Consistency) String() string {
	switch c {
	case TSO:
		return "TSO"
	case RC:
		return "RC"
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

// ParseConsistency resolves a consistency-model name from external input
// (CLI flags, simulation-server job requests). Matching is case-insensitive.
func ParseConsistency(s string) (Consistency, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "TSO":
		return TSO, nil
	case "RC":
		return RC, nil
	}
	return TSO, fmt.Errorf("config: unknown consistency model %q (want TSO or RC)", s)
}

// ParseConsistencies resolves a list of model names; an empty list means
// both evaluated models, in matrix order (TSO then RC).
func ParseConsistencies(names []string) ([]Consistency, error) {
	if len(names) == 0 {
		return []Consistency{TSO, RC}, nil
	}
	out := make([]Consistency, len(names))
	for i, n := range names {
		cm, err := ParseConsistency(n)
		if err != nil {
			return nil, err
		}
		out[i] = cm
	}
	return out, nil
}

// Defense selects the processor configuration by registered scheme name.
// The value is the internal/defense registry key; the constants below name
// the built-in schemes. An unregistered value fails Scheme() (and so
// sim.New) with the registry's descriptive error.
type Defense string

// The five processor configurations of Table V, plus the two drop-in
// countermeasures that prove the framework.
const (
	Base         Defense = "Base"         // conventional, insecure baseline
	FenceSpectre Defense = "Fe-Sp"        // fence after every indirect/conditional branch
	ISSpectre    Defense = "IS-Sp"        // InvisiSpec-Spectre
	FenceFuture  Defense = "Fe-Fu"        // fence before every load
	ISFuture     Defense = "IS-Fu"        // InvisiSpec-Future
	SpecBox      Defense = "SpecBox"      // label-based speculative-fill quarantine
	BasicBlocker Defense = "BasicBlocker" // ISA-assisted basic-block speculation control
)

// String returns the short name used in the paper's figures (the registry
// key itself).
func (d Defense) String() string {
	if d == "" {
		return "Defense(unset)"
	}
	return string(d)
}

// Scheme resolves the defense to its row of the scheme table.
func (d Defense) Scheme() (defense.Scheme, error) {
	return defense.Lookup(string(d))
}

// MustScheme resolves the defense, panicking on unregistered names.
// Construction paths that accept external input (sim.New, the CLIs)
// validate with Scheme or ParseDefense first.
func (d Defense) MustScheme() defense.Scheme {
	s, err := d.Scheme()
	if err != nil {
		panic(err)
	}
	return s
}

// AllDefenses lists every registered configuration in matrix order: the
// five Table V configurations first, then later-registered schemes.
func AllDefenses() []Defense {
	all := defense.All()
	out := make([]Defense, len(all))
	for i, s := range all {
		out[i] = Defense(s.Name)
	}
	return out
}

// ParseDefense resolves a scheme name from a CLI flag, with the registry's
// known-names error on failure.
func ParseDefense(s string) (Defense, error) {
	if _, err := defense.Lookup(s); err != nil {
		return "", err
	}
	return Defense(s), nil
}

// ParseDefenses resolves a comma-separated list of scheme names; an empty
// list means every registered defense. Order and duplicates are preserved
// (a sweep may deliberately repeat a scheme).
func ParseDefenses(csv string) ([]Defense, error) {
	if strings.TrimSpace(csv) == "" {
		return AllDefenses(), nil
	}
	var out []Defense
	for _, part := range strings.Split(csv, ",") {
		d, err := ParseDefense(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// UsesInvisiSpec reports whether the configuration issues speculative
// loads through the speculative-buffer machinery. Unregistered values
// report false.
func (d Defense) UsesInvisiSpec() bool {
	s, err := d.Scheme()
	return err == nil && s.InvisibleLoads()
}

// CacheParams sizes one cache level.
type CacheParams struct {
	SizeBytes int
	Ways      int
	// LatencyRT is the round-trip hit latency in cycles.
	LatencyRT int
	Ports     int // accesses accepted per cycle
	MSHRs     int
}

// Sets returns the number of sets of isa.LineBytes-byte lines.
func (p CacheParams) Sets() int {
	return p.SizeBytes / (p.Ways * isa.LineBytes)
}

// Machine holds every structural parameter of the simulated system.
type Machine struct {
	Name     string
	Cores    int
	ClockGHz float64

	// Core (8-issue OoO per Table IV).
	FetchWidth  int
	IssueWidth  int
	RetireWidth int
	ROBEntries  int
	LQEntries   int
	SQEntries   int
	WBEntries   int // write buffer depth
	IntALUs     int
	MulDivUnits int
	// RedirectPenalty is the front-end refill bubble after a squash
	// (approximates the paper's deeper fetch pipeline).
	RedirectPenalty int
	Bpred           bpred.Config

	// Memory structure. Every level holds isa.LineBytes-byte lines.
	L1I CacheParams
	L1D CacheParams
	// L2 is the shared, inclusive LLC; one bank per core. Its LatencyRT
	// is the round-trip latency to the local bank.
	L2            CacheParams
	DRAMLatency   int // cycles after the L2 (50 ns at 2 GHz = 100)
	DRAMBandwidth int // bytes per cycle per channel

	// NoC: MeshW x MeshH mesh, 128-bit links, 1 cycle per hop.
	MeshW        int
	MeshH        int
	LinkBytes    int // bytes transferred per link per cycle
	HopLatency   int
	CtrlMsgBytes int // size of a control message on the NoC
	DataMsgBytes int // size of a data-carrying message (ctrl + line)

	// Hardware prefetcher: a confidence-ramped stream prefetcher at the
	// L1D (tagged re-arm, max distance PrefetchDegree). The paper's Table
	// IV machine has none (default false); when enabled, InvisiSpec gates
	// it on visibility (§VI-B): Spec-GetS accesses never train or trigger
	// it; demand misses, validations and exposures do.
	HWPrefetch     bool
	PrefetchDegree int

	// TLB.
	TLBEntries      int
	PageWalkLatency int

	// Execution latencies.
	LatALU, LatMul, LatDiv int

	// Interrupts: if > 0, a timer interrupt fires every this many cycles
	// (squashing the pipeline). Models the "interrupts" squash source.
	InterruptInterval int

	// InvisiSpec feature toggles (all true for the paper's design; the
	// ablation benches flip them individually).
	LLCSBEnabled  bool // per-core LLC speculative buffer (§V-F)
	VToETransform bool // validation-to-exposure transform (§V-C1)
	EarlySquash   bool // squash V-state USLs on invalidation (§V-C2)
	SBReuse       bool // reuse SB lines across USLs (§V-E)
	OverlapValExp bool // overlap rules of §V-D (false = fully serialized)
	DelayTLBMiss  bool // delay D-TLB miss service to visibility (§VI-E3)
	// TrustSafeAnnotations implements the paper's §XI future-work
	// optimization: loads statically proven safe (isa.Inst.Safe) bypass
	// the USL machinery entirely. Off by default — it extends the trusted
	// computing base to whatever produced the proofs.
	TrustSafeAnnotations bool
	// ProtectICache implements the extension sketched in the paper's
	// footnote 2: speculative instruction fetches read through an
	// invisible path (no L1I/LLC install, no replacement update) and a
	// line only becomes visible — is installed — once an instruction from
	// it retires. Off by default (the paper scopes it out "for
	// simplicity").
	ProtectICache bool
}

// Default returns the Table IV machine for n cores (1 for SPEC runs, 8 for
// PARSEC runs).
func Default(n int) Machine {
	return Machine{
		Name:            fmt.Sprintf("%d-core Table IV machine", n),
		Cores:           n,
		ClockGHz:        2.0,
		FetchWidth:      8,
		IssueWidth:      8,
		RetireWidth:     8,
		ROBEntries:      192,
		LQEntries:       32,
		SQEntries:       32,
		WBEntries:       32,
		IntALUs:         6,
		MulDivUnits:     2,
		RedirectPenalty: 6,
		Bpred:           bpred.DefaultConfig(),

		L1I: CacheParams{SizeBytes: 32 << 10, Ways: 4, LatencyRT: 1, Ports: 1, MSHRs: 8},
		L1D: CacheParams{SizeBytes: 64 << 10, Ways: 8, LatencyRT: 1, Ports: 3, MSHRs: 32},
		L2:  CacheParams{SizeBytes: 2 << 20, Ways: 16, LatencyRT: 8, Ports: 1, MSHRs: 32},

		DRAMLatency:   100, // 50 ns at 2 GHz
		DRAMBandwidth: 16,

		MeshW:        4,
		MeshH:        2,
		LinkBytes:    16, // 128-bit links
		HopLatency:   1,
		CtrlMsgBytes: 8,
		DataMsgBytes: 72, // 8B header + 64B line

		HWPrefetch:     false, // Table IV lists none; see the ablation bench
		PrefetchDegree: 16,

		TLBEntries:      64,
		PageWalkLatency: 40,

		LatALU: 1,
		LatMul: 3,
		LatDiv: 12,

		LLCSBEnabled:  true,
		VToETransform: true,
		EarlySquash:   true,
		SBReuse:       true,
		OverlapValExp: true,
		DelayTLBMiss:  true,
	}
}

// Validate checks structural consistency and returns a descriptive error for
// the first problem found.
func (m Machine) Validate() error {
	switch {
	case m.Cores <= 0:
		return fmt.Errorf("config: Cores = %d, must be positive", m.Cores)
	case m.Cores > m.MeshW*m.MeshH:
		return fmt.Errorf("config: %d cores exceed %dx%d mesh", m.Cores, m.MeshW, m.MeshH)
	case m.ROBEntries <= 0 || m.LQEntries <= 0 || m.SQEntries <= 0:
		return fmt.Errorf("config: queue sizes must be positive")
	case m.LQEntries > m.ROBEntries || m.SQEntries > m.ROBEntries:
		return fmt.Errorf("config: LQ/SQ cannot exceed ROB")
	}
	for _, c := range []struct {
		name string
		p    CacheParams
	}{{"L1I", m.L1I}, {"L1D", m.L1D}, {"L2", m.L2}} {
		sets := c.p.Sets()
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s has %d sets, must be a positive power of two", c.name, sets)
		}
		if c.p.MSHRs <= 0 || c.p.Ports <= 0 {
			return fmt.Errorf("config: %s needs positive MSHRs and ports", c.name)
		}
	}
	return nil
}

// Run couples a machine with the defense and consistency model under test.
type Run struct {
	Machine     Machine
	Defense     Defense
	Consistency Consistency
}

// String names the run the way the paper labels its bars.
func (r Run) String() string {
	return fmt.Sprintf("%s/%s", r.Defense, r.Consistency)
}
