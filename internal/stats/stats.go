// Package stats collects the simulation counters the paper reports:
// execution cycles, network traffic split by cause (Figures 6 and 8),
// squash counts broken down by reason, exposure/validation mix,
// and speculative-buffer hit rates (Table VI).
package stats

import (
	"fmt"
	"reflect"
)

// SquashReason classifies why a pipeline squash happened (Table I sources).
type SquashReason int

// Squash reasons.
const (
	SquashBranch      SquashReason = iota // control-flow misprediction
	SquashMemDep                          // address alias between a load and an earlier store
	SquashConsistency                     // memory consistency violation (invalidation/eviction)
	SquashEarly                           // InvisiSpec early squash of a V-state USL on invalidation (§V-C2)
	SquashValidation                      // InvisiSpec validation failure
	SquashException                       // exception at retirement
	SquashInterrupt                       // (timer) interrupt
	NumSquashReasons
)

// String names the squash reason.
func (r SquashReason) String() string {
	switch r {
	case SquashBranch:
		return "branch-mispredict"
	case SquashMemDep:
		return "memory-dependence"
	case SquashConsistency:
		return "consistency-violation"
	case SquashEarly:
		return "early-squash"
	case SquashValidation:
		return "validation-failure"
	case SquashException:
		return "exception"
	case SquashInterrupt:
		return "interrupt"
	}
	return fmt.Sprintf("SquashReason(%d)", int(r))
}

// TrafficClass classifies NoC bytes by what caused them (Figures 6, 8).
type TrafficClass int

// Traffic classes.
const (
	TrafficNormal    TrafficClass = iota // demand accesses by safe loads/stores
	TrafficSpecLoad                      // Spec-GetS transactions by USLs
	TrafficValExp                        // validation and exposure transactions
	TrafficWriteback                     // dirty evictions and recalls
	TrafficFetch                         // instruction fetch
	NumTrafficClasses
)

// String names the traffic class.
func (c TrafficClass) String() string {
	switch c {
	case TrafficNormal:
		return "normal"
	case TrafficSpecLoad:
		return "spec-load"
	case TrafficValExp:
		return "expose-validate"
	case TrafficWriteback:
		return "writeback"
	case TrafficFetch:
		return "fetch"
	}
	return fmt.Sprintf("TrafficClass(%d)", int(c))
}

// TrafficClassNames lists the class names in counter order, for writers that
// key a traffic split by name (the bench-JSON artifact).
func TrafficClassNames() [NumTrafficClasses]string {
	var out [NumTrafficClasses]string
	for c := TrafficClass(0); c < NumTrafficClasses; c++ {
		out[c] = c.String()
	}
	return out
}

// Core aggregates the counters of one simulated core.
type Core struct {
	Cycles   uint64
	Retired  uint64
	Fetched  uint64
	Squashed uint64 // instructions squashed

	Squashes [NumSquashReasons]uint64 // squash events by reason

	CondBranches  uint64
	Mispredicts   uint64
	LoadsRetired  uint64
	StoresRetired uint64

	// InvisiSpec.
	USLsIssued          uint64
	Exposures           uint64
	ValidationsL1Hit    uint64
	ValidationsL1Miss   uint64
	ValidationFailures  uint64
	ValidationStall     uint64 // cycles retirement stalled on a validation
	SBReuseHits         uint64 // USLs served from an earlier USL's SB line
	SBReuseMisses       uint64
	LLCSBHits           uint64 // validations/exposures served by the LLC-SB
	LLCSBMisses         uint64
	InterruptsDelayed   uint64 // interrupts deferred by the §VI-D window
	PrefetchesInvisible uint64

	// Defense-scheme accounting (internal/defense cleanup hooks).
	SpecLabelsCleared uint64 // SpecBox labels cleared as their loads retired
	SpecLabelsFlushed uint64 // SpecBox labels flushed by squashes

	// TLB.
	TLBHits         uint64
	TLBMisses       uint64
	TLBWalksDelayed uint64 // walks deferred to the visibility point

	// Memory system, core-side view.
	L1DHits   uint64
	L1DMisses uint64
}

// Validations returns the total validation count.
func (c *Core) Validations() uint64 { return c.ValidationsL1Hit + c.ValidationsL1Miss }

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// MispredictRate returns conditional branch mispredictions per prediction.
func (c *Core) MispredictRate() float64 {
	if c.CondBranches == 0 {
		return 0
	}
	return float64(c.Mispredicts) / float64(c.CondBranches)
}

// TotalSquashes returns squash events summed across all reasons.
func (c *Core) TotalSquashes() uint64 {
	var total uint64
	for _, v := range c.Squashes {
		total += v
	}
	return total
}

// SquashesPerMInst returns squash events per million retired instructions.
func (c *Core) SquashesPerMInst() float64 {
	if c.Retired == 0 {
		return 0
	}
	return float64(c.TotalSquashes()) * 1e6 / float64(c.Retired)
}

// Machine aggregates counters across cores plus shared-resource counters.
type Machine struct {
	Cores []Core
	// TrafficBytes counts NoC + DRAM-channel bytes by class.
	TrafficBytes [NumTrafficClasses]uint64
	// Cycles is the global cycle count when the run finished.
	Cycles uint64
	// DRAMReads/DRAMWrites count main-memory line transfers.
	DRAMReads  uint64
	DRAMWrites uint64
	// LLCHits/LLCMisses count demand accesses at the shared cache.
	LLCHits   uint64
	LLCMisses uint64
}

// NewMachine returns zeroed stats for n cores.
func NewMachine(n int) *Machine {
	return &Machine{Cores: make([]Core, n)}
}

// Fingerprint renders every counter in the stats block — global cycles,
// per-core counters (retired, squashes by reason, InvisiSpec activity,
// TLB, L1D), traffic by class, and the shared LLC/DRAM counters — into one
// deterministic string. The kernel-equivalence tests compare fingerprints
// byte-for-byte between the stepped and fast-forward simulation kernels;
// any counter divergence, however small, fails the oracle.
func (m *Machine) Fingerprint() string {
	return fmt.Sprintf("%+v", *m)
}

// TotalTraffic returns all bytes moved.
func (m *Machine) TotalTraffic() uint64 {
	var t uint64
	for _, v := range m.TrafficBytes {
		t += v
	}
	return t
}

// TotalRetired sums retired instructions across cores.
func (m *Machine) TotalRetired() uint64 {
	var t uint64
	for i := range m.Cores {
		t += m.Cores[i].Retired
	}
	return t
}

// AddTraffic records nbytes of traffic of the given class.
func (m *Machine) AddTraffic(class TrafficClass, nbytes uint64) {
	m.TrafficBytes[class] += nbytes
}

// Sum returns the element-wise sum of per-core counters, useful for
// machine-wide rates in Table VI.
func (m *Machine) Sum() Core {
	var s Core
	for i := range m.Cores {
		s.combine(&m.Cores[i], add)
	}
	return s
}

// Sub returns c minus prev, element-wise: the counters accumulated between
// two snapshots (used to exclude warmup from measurements).
func (c Core) Sub(prev Core) Core {
	c.combine(&prev, sub)
	return c
}

func add(a, b uint64) uint64 { return a + b }
func sub(a, b uint64) uint64 { return a - b }

// combine sets every counter of c to op(counter, the same counter of o),
// walking Core's fields in declaration order: each uint64 field and each
// element of a uint64-array field (Core holds nothing else). Sum and Sub are
// this one walk, so a counter added to Core is summed and differenced
// without either being edited.
func (c *Core) combine(o *Core, op func(a, b uint64) uint64) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cf, of := cv.Field(i), ov.Field(i)
		if cf.Kind() != reflect.Array {
			cf.SetUint(op(cf.Uint(), of.Uint()))
			continue
		}
		for k := 0; k < cf.Len(); k++ {
			ce := cf.Index(k)
			ce.SetUint(op(ce.Uint(), of.Index(k).Uint()))
		}
	}
}
