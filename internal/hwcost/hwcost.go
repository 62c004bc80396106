// Package hwcost is an analytical SRAM/CAM cost model standing in for
// CACTI 5 (paper §IX-E): it estimates area, access time, dynamic energy and
// leakage of InvisiSpec's two added structures — the per-core L1 Speculative
// Buffer and the per-core LLC Speculative Buffer — at a 16 nm node. The
// linear-plus-offset coefficients below were calibrated against the CACTI
// outputs the paper reports in Table VII, so small arrays of this class
// reproduce those values; the model is documented as a substitution in
// DESIGN.md §2.
package hwcost

import (
	"invisispec/internal/config"
	"invisispec/internal/isa"
)

// Array describes one SRAM/CAM structure.
type Array struct {
	Name     string
	Entries  int
	DataBits int // payload bits per entry
	TagBits  int // tag/metadata bits per entry (CAM-searched when CAM)
	CAM      bool
}

// Bits returns the structure's total storage bits.
func (a Array) Bits() int { return a.Entries * (a.DataBits + a.TagBits) }

// Estimate is the cost report for one structure (Table VII's rows).
type Estimate struct {
	AreaMM2  float64 // mm^2
	AccessPS float64 // ps
	ReadPJ   float64 // pJ per read
	WritePJ  float64 // pJ per write
	LeakMW   float64 // mW
}

// Model coefficients for small arrays at 16 nm (fit to CACTI 5 as reported
// in the paper's Table VII).
const (
	areaBaseMM2   = 0.0030 // decoder/periphery floor
	areaPerBitMM2 = 7.7e-7 // per storage bit
	camAreaFactor = 1.06   // CAM match-line overhead on tag bits
	accessBasePS  = 55.0   //
	accessPerLog  = 10.0   // per log2(bits/1024)
	energyBasePJ  = 0.85   // pJ
	energyPerBit  = 1.9e-4 // pJ per bit
	writeFactor   = 0.977  // writes slightly cheaper (no sense amps)
	leakPerBitMW  = 3.0e-5 // mW per bit
	camLeakFactor = 1.10   // CAM comparators leak more
)

func log2f(v float64) float64 {
	n := 0.0
	for v >= 2 {
		v /= 2
		n++
	}
	return n + (v - 1) // linear interpolation between powers of two
}

// Estimate computes the cost of an array.
func (a Array) Estimate() Estimate {
	bits := float64(a.Bits())
	tagBits := float64(a.Entries * a.TagBits)
	area := areaBaseMM2 + bits*areaPerBitMM2
	leak := bits * leakPerBitMW
	if a.CAM {
		area += tagBits * areaPerBitMM2 * (camAreaFactor - 1)
		leak *= camLeakFactor
	}
	read := energyBasePJ + bits*energyPerBit
	return Estimate{
		AreaMM2:  area,
		AccessPS: accessBasePS + accessPerLog*log2f(bits/1024),
		ReadPJ:   read,
		WritePJ:  read * writeFactor,
		LeakMW:   leak,
	}
}

// L1SB describes the per-core L1 Speculative Buffer for a machine: one
// entry per load-queue slot, each holding a 64-byte line, a byte-granular
// address mask, and the status bits of Figure 3.
func L1SB(m config.Machine) Array {
	return Array{
		Name:     "L1-SB",
		Entries:  m.LQEntries,
		DataBits: isa.LineBytes * 8,
		TagBits:  isa.LineBytes + 8, // address mask + Valid/Performed/State/Prefetch
	}
}

// LLCSB describes the per-core LLC Speculative Buffer: one entry per
// load-queue slot holding a line, its address tag, and the epoch ID
// (§VI-C); lookups are associative on (address, epoch).
func LLCSB(m config.Machine) Array {
	return Array{
		Name:     "LLC-SB",
		Entries:  m.LQEntries,
		DataBits: isa.LineBytes * 8,
		TagBits:  42 + 16 + 1, // line address + epoch + valid
		CAM:      true,
	}
}
