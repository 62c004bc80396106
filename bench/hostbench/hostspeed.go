package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"
)

// A shared host's speed drifts by a third and more over minutes, as other
// tenants load the cores, caches and memory the benchmark runs on, and the
// drift outlasts any run. So the benchmark runs a reference kernel, code of
// its own that no change to the simulator touches, just before and just
// after every timed segment, and divides the segment's times by how much
// slower than usual the reference kernel ran around it. End-to-end times
// are therefore in reference-host seconds: what the segment would have
// taken on a host that runs the reference kernel in refALU and refChase.
//
// The kernel has two halves, because the drift hits them differently and
// the simulator does both: a branchy integer loop, which tracks the cores'
// speed, and a dependent random walk through an 8 MiB page map shaped like
// isa.Memory, which tracks the caches and memory. The slowdown is the
// geometric mean of the halves' slowdowns.
const (
	refALUIters   = 3_000_000
	refChaseSteps = 200_000
	refPages      = 2048 // 8 MiB of 4 KiB pages

	// About the halves' times on the 2-vCPU Xeon the README's numbers come
	// from, in its quietest spells: one in twenty samples there was faster.
	// They only set the scale, and both sides of a comparison divide by the
	// same constants.
	refALU   = 20 * time.Millisecond
	refChase = 24 * time.Millisecond
)

var refSink uint64

// hostSpeed measures the host's current slowdown with the reference kernel.
type hostSpeed struct {
	pages map[uint64]*[4096]byte
	// last is the slowdown sampled at the end of the previous segment,
	// which is also just before the next one; 0 before the first sample.
	last float64
	// factors collects every segment's slowdown, for the run's notes.
	factors []float64
}

func newHostSpeed() *hostSpeed {
	rng := rand.New(rand.NewSource(1))
	h := &hostSpeed{pages: make(map[uint64]*[4096]byte, refPages)}
	for p := uint64(0); p < refPages; p++ {
		pg := new([4096]byte)
		rng.Read(pg[:])
		h.pages[p] = pg
	}
	return h
}

// sample runs the reference kernel once and returns the host's slowdown
// against the reference host: above 1 when slower. It first finishes any
// garbage collection the segment before it started, and reads the page map
// through untimed, so that neither how much the simulator allocates nor
// how much of the cache it took can slow the kernel and hide a slowdown of
// the simulator's own.
func (h *hostSpeed) sample() float64 {
	runtime.GC()
	for _, pg := range h.pages {
		for i := 0; i < len(pg); i += 64 {
			refSink += uint64(pg[i])
		}
	}

	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < refALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x & 3 {
		case 0:
			acc += x >> 3
		case 1:
			acc ^= x
		default:
			acc -= x & 0xffff
		}
	}
	alu := time.Since(start)

	start = time.Now()
	refSink += acc + h.chase(refChaseSteps)
	chase := time.Since(start)

	h.last = math.Sqrt(alu.Seconds() / refALU.Seconds() * chase.Seconds() / refChase.Seconds())
	return h.last
}

// chase walks n dependent random steps through the page map.
func (h *hostSpeed) chase(n int) uint64 {
	a := uint64(12345)
	for i := 0; i < n; i++ {
		pg := h.pages[(a>>12)%refPages]
		v := uint64(pg[a&4095]) | uint64(pg[(a+1)&4095])<<8
		a = a*6364136223846793005 + v + 1442695040888963407
		a ^= a >> 29
	}
	return a
}

// around runs fn and returns the host's slowdown over it: the mean of the
// slowdowns sampled just before and just after.
func (h *hostSpeed) around(fn func() error) (float64, error) {
	before := h.last
	if before == 0 {
		before = h.sample()
	}
	if err := fn(); err != nil {
		return 0, err
	}
	f := (before + h.sample()) / 2
	h.factors = append(h.factors, f)
	return f, nil
}

// scaled converts raw nanoseconds measured at slowdown f to
// reference-host nanoseconds.
func scaled(ns []int64, f float64) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n) / f
	}
	return out
}
