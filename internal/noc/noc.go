// Package noc models the on-chip interconnect: a MeshW x MeshH mesh with
// XY dimension-order routing, 128-bit links, one cycle per hop, and per-link
// serialization (a message occupies each link for size/linkBytes cycles, so
// concurrent messages contend). Every message's bytes are accounted to a
// traffic class so the harness can regenerate Figures 6 and 8.
package noc

import (
	"fmt"

	"invisispec/internal/stats"
)

// Mesh is the interconnect.
type Mesh struct {
	w, h       int
	hopLatency uint64
	linkBytes  int
	// linkFree[l] is the first cycle link l is available. Links are
	// unidirectional: for each node, 4 outgoing links (E,W,N,S) plus a
	// local ejection port.
	linkFree []uint64
	st       *stats.Machine

	// Message conservation: every Send pushes its delivery cycle onto the
	// pending min-heap; Advance and Accounting drain expired entries, so at
	// any cycle injected == delivered + in-flight. The invariant checker
	// audits this.
	injected  uint64
	delivered uint64
	pending   []uint64 // binary min-heap of delivery cycles
}

const (
	dirE = iota
	dirW
	dirN
	dirS
	numDirs
)

// New builds a mesh. st may be nil (traffic is then uncounted — tests only).
func New(w, h, hopLatency, linkBytes int, st *stats.Machine) *Mesh {
	if w <= 0 || h <= 0 || linkBytes <= 0 || hopLatency < 0 {
		panic(fmt.Sprintf("noc: bad geometry %dx%d link=%d hop=%d", w, h, linkBytes, hopLatency))
	}
	return &Mesh{
		w:          w,
		h:          h,
		hopLatency: uint64(hopLatency),
		linkBytes:  linkBytes,
		linkFree:   make([]uint64, w*h*numDirs),
		st:         st,
	}
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.w * m.h }

func (m *Mesh) coord(node int) (x, y int) { return node % m.w, node / m.w }

func (m *Mesh) link(node, dir int) int { return node*numDirs + dir }

func (m *Mesh) serCycles(bytes int) uint64 {
	return uint64((bytes + m.linkBytes - 1) / m.linkBytes)
}

// Send injects a message of the given size at src destined for dst at cycle
// now, and returns the cycle at which it is fully delivered. Bytes are
// accounted to class. Local (src == dst) messages still count as traffic —
// the paper counts all bytes moved between caches — but traverse no links.
func (m *Mesh) Send(now uint64, src, dst, bytes int, class stats.TrafficClass) uint64 {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: send %d->%d outside %d-node mesh", src, dst, m.Nodes()))
	}
	if m.st != nil {
		m.st.AddTraffic(class, uint64(bytes))
	}
	ser := m.serCycles(bytes)
	t := now
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	step := func(dir int, nx, ny int) {
		l := m.link(y*m.w+x, dir)
		start := t
		if m.linkFree[l] > start {
			start = m.linkFree[l]
		}
		m.linkFree[l] = start + ser
		t = start + ser + m.hopLatency
		x, y = nx, ny
	}
	for x != dx {
		if x < dx {
			step(dirE, x+1, y)
		} else {
			step(dirW, x-1, y)
		}
	}
	for y != dy {
		if y < dy {
			step(dirS, x, y+1)
		} else {
			step(dirN, x, y-1)
		}
	}
	if src == dst {
		// Local transfer: pay serialization only.
		t = now + ser
	}
	m.injected++
	m.pushPending(t)
	return t
}

// pushPending adds a delivery cycle to the min-heap.
func (m *Mesh) pushPending(t uint64) {
	m.pending = append(m.pending, t)
	i := len(m.pending) - 1
	for i > 0 {
		p := (i - 1) / 2
		if m.pending[p] <= m.pending[i] {
			break
		}
		m.pending[p], m.pending[i] = m.pending[i], m.pending[p]
		i = p
	}
}

// popPending removes the earliest delivery cycle from the min-heap.
func (m *Mesh) popPending() {
	n := len(m.pending) - 1
	m.pending[0] = m.pending[n]
	m.pending = m.pending[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && m.pending[l] < m.pending[small] {
			small = l
		}
		if r < n && m.pending[r] < m.pending[small] {
			small = r
		}
		if small == i {
			return
		}
		m.pending[i], m.pending[small] = m.pending[small], m.pending[i]
		i = small
	}
}

// Accounting returns the message-conservation counters as of cycle now:
// messages injected since construction, messages whose delivery cycle has
// passed, and messages still in flight. injected == delivered + inflight
// always holds by construction here; the useful check is cross-referencing
// inflight against the event queue (a message in flight with no pending
// hierarchy event is a lost message).
func (m *Mesh) Accounting(now uint64) (injected, delivered uint64, inflight int) {
	m.Advance(now)
	return m.injected, m.delivered, len(m.pending)
}

// Advance counts the messages delivered by cycle now as delivered, so the
// pending heap holds only messages still in flight.
func (m *Mesh) Advance(now uint64) {
	for len(m.pending) > 0 && m.pending[0] <= now {
		m.popPending()
		m.delivered++
	}
}
