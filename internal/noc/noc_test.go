package noc

import (
	"testing"

	"invisispec/internal/stats"
)

// TestHops pins the XY route length between mesh nodes through Send's
// latency: on an idle mesh an 8-byte control message takes one
// serialization cycle and one hop cycle per link, and a local transfer
// pays serialization only.
func TestHops(t *testing.T) {
	cases := []struct{ src, dst, hops int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 7, 4}, {3, 4, 4},
	}
	for _, c := range cases {
		want := uint64(100 + 2*c.hops)
		if c.hops == 0 {
			want = 101
		}
		if got := New(4, 2, 1, 16, nil).Send(100, c.src, c.dst, 8, stats.TrafficNormal); got != want {
			t.Errorf("Send(%d->%d) arrives at %d, want %d (%d hops)", c.src, c.dst, got, want, c.hops)
		}
	}
}

func TestSendLatencyScalesWithDistance(t *testing.T) {
	m := New(4, 2, 1, 16, nil)
	// 8-byte control message: 1 serialization cycle per link + 1 hop cycle.
	if got := m.Send(100, 0, 1, 8, stats.TrafficNormal); got != 102 {
		t.Fatalf("1-hop ctrl arrival = %d, want 102", got)
	}
	m2 := New(4, 2, 1, 16, nil)
	if got := m2.Send(100, 0, 7, 8, stats.TrafficNormal); got != 108 {
		t.Fatalf("4-hop ctrl arrival = %d, want 108", got)
	}
}

func TestDataMessageSerialization(t *testing.T) {
	m := New(4, 2, 1, 16, nil)
	// 72-byte data message: ceil(72/16)=5 cycles per link + 1 hop.
	if got := m.Send(0, 0, 1, 72, stats.TrafficNormal); got != 6 {
		t.Fatalf("data arrival = %d, want 6", got)
	}
}

func TestLinkContention(t *testing.T) {
	m := New(4, 2, 1, 16, nil)
	a := m.Send(0, 0, 1, 72, stats.TrafficNormal)
	b := m.Send(0, 0, 1, 72, stats.TrafficNormal)
	if b <= a {
		t.Fatalf("second message (%d) did not queue behind first (%d)", b, a)
	}
	// Opposite-direction traffic must not contend.
	m2 := New(4, 2, 1, 16, nil)
	f := m2.Send(0, 0, 1, 72, stats.TrafficNormal)
	g := m2.Send(0, 1, 0, 72, stats.TrafficNormal)
	if f != g {
		t.Fatalf("opposite links contended: %d vs %d", f, g)
	}
}

func TestLocalSend(t *testing.T) {
	m := New(4, 2, 1, 16, nil)
	if got := m.Send(10, 3, 3, 72, stats.TrafficNormal); got != 15 {
		t.Fatalf("local data send = %d, want 15", got)
	}
}

func TestTrafficAccounting(t *testing.T) {
	st := stats.NewMachine(1)
	m := New(4, 2, 1, 16, st)
	m.Send(0, 0, 1, 72, stats.TrafficSpecLoad)
	m.Send(0, 1, 0, 8, stats.TrafficValExp)
	m.Send(0, 2, 2, 72, stats.TrafficNormal) // local still counted
	if st.TrafficBytes[stats.TrafficSpecLoad] != 72 {
		t.Fatalf("spec bytes = %d", st.TrafficBytes[stats.TrafficSpecLoad])
	}
	if st.TrafficBytes[stats.TrafficValExp] != 8 {
		t.Fatalf("valexp bytes = %d", st.TrafficBytes[stats.TrafficValExp])
	}
	if st.TotalTraffic() != 152 {
		t.Fatalf("total = %d, want 152", st.TotalTraffic())
	}
}

func TestSendPanicsOutOfRange(t *testing.T) {
	m := New(2, 2, 1, 16, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range send did not panic")
		}
	}()
	m.Send(0, 0, 4, 8, stats.TrafficNormal)
}

// TestAdvanceKeepsOnlyMessagesInFlight checks that Advance retires every
// message delivered by its cycle, so a run that sends one message a cycle
// keeps a pending heap the size of its in-flight messages, not of every
// message it ever sent, and Accounting still balances.
func TestAdvanceKeepsOnlyMessagesInFlight(t *testing.T) {
	m := New(4, 2, 1, 16, nil)
	const sends = 10000
	for now := uint64(0); now < sends; now++ {
		m.Advance(now)
		m.Send(now, int(now%8), int((now*3+1)%8), 8, stats.TrafficNormal)
		if len(m.pending) > 16 {
			t.Fatalf("cycle %d: %d messages pending, want only those in flight", now, len(m.pending))
		}
	}
	if inj, del, inflight := m.Accounting(2 * sends); inj != sends || del != sends || inflight != 0 {
		t.Fatalf("Accounting = (%d, %d, %d), want (%d, %d, 0)", inj, del, inflight, sends, sends)
	}
}
