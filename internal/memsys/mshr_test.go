package memsys

import (
	"testing"

	"invisispec/internal/coherence"
)

// chainClient records deliveries like testClient and, on delivering the
// token armed in onToken, submits next from inside the delivery.
type chainClient struct {
	testClient
	h        *Hierarchy
	onToken  uint64
	next     Request
	accepted bool
}

func (c *chainClient) Deliver(now uint64, r Response) {
	c.testClient.Deliver(now, r)
	if r.Token == c.onToken {
		c.accepted = c.h.Submit(c.next)
	}
}

// tokens returns the delivered tokens in delivery order.
func (c *testClient) tokens() []uint64 {
	var out []uint64
	for _, r := range c.delivered {
		out = append(out, r.Token)
	}
	return out
}

// TestMSHRRules pins the rules the L1 miss-status holding registers keep:
// which requests share an outstanding miss, which must retry, and what the
// fill answers.
func TestMSHRRules(t *testing.T) {
	t.Run("GetX never joins a GetS miss", func(t *testing.T) {
		r := newRig(t, 1)
		addr := uint64(0x20000)
		r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 1})
		r.step()
		if r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 2}) {
			t.Fatal("ReadExcl joined an outstanding GetS miss")
		}
		r.runUntil(t, func() bool { return r.clients[0].gotToken(1) }, 1000)
		if !r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 2}) {
			t.Fatal("ReadExcl refused after the GetS fill landed")
		}
		r.runUntil(t, func() bool { return r.clients[0].gotToken(2) }, 1000)
		if got := r.h.L1State(0, addr); got != coherence.Modified {
			t.Fatalf("L1 state = %v, want M", got)
		}
	})

	t.Run("GetX joins a GetX miss", func(t *testing.T) {
		r := newRig(t, 1)
		addr := uint64(0x20000)
		r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 1})
		r.step()
		if !r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr + 8, Token: 2}) {
			t.Fatal("second ReadExcl refused on an outstanding GetX miss")
		}
		r.runUntil(t, func() bool { return len(r.clients[0].delivered) == 2 }, 1000)
		if got := r.clients[0].tokens(); got[0] != 1 || got[1] != 2 {
			t.Fatalf("tokens answered in order %v, want [1 2]", got)
		}
		if r.st.DRAMReads != 1 {
			t.Fatalf("coalesced GetX issued %d DRAM reads, want 1", r.st.DRAMReads)
		}
	})

	t.Run("full file refuses new lines only", func(t *testing.T) {
		r := newRig(t, 1)
		n := r.h.cfg.L1D.MSHRs
		line := func(i int) uint64 { return 0x100000 + 64*uint64(i) }
		for i := 0; i < n; {
			if r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: line(i), Token: uint64(i + 1)}) {
				i++
			} else {
				r.step() // out of ports this cycle
			}
		}
		r.step()
		if _, _, live, _ := r.h.MSHRAccounting(0); live != n || len(r.clients[0].delivered) != 0 {
			t.Fatalf("set-up: %d live MSHRs and %d answers, want %d and none",
				live, len(r.clients[0].delivered), n)
		}
		if r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: line(n), Token: 100}) {
			t.Fatal("a miss to a new line took an MSHR beyond the file")
		}
		if r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: line(n), Token: 101}) {
			t.Fatal("a ReadExcl to a new line took an MSHR beyond the file")
		}
		if !r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: line(3) + 8, Token: 102}) {
			t.Fatal("a request to a live line did not coalesce on a full file")
		}
		if !r.h.Submit(Request{Type: SpecRead, Core: 0, Addr: line(n), Token: 103}) {
			t.Fatal("a Spec-GetS was refused on a full file; it takes no MSHR")
		}
		if _, _, live, _ := r.h.MSHRAccounting(0); live != n {
			t.Fatalf("%d live MSHRs after the refusals, want %d", live, n)
		}
		r.runUntil(t, func() bool { return r.clients[0].gotToken(102) && r.clients[0].gotToken(103) }, 2000)
		if r.clients[0].gotToken(100) || r.clients[0].gotToken(101) {
			t.Fatal("a refused request was answered")
		}
	})

	t.Run("Spec-GetS bounces off a held line", func(t *testing.T) {
		r := newRig(t, 2)
		addr := uint64(0x30000)
		ln := r.h.LineOf(addr)
		r.h.Submit(Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 1})
		r.runUntil(t, func() bool { return r.h.BankBusy(ln) }, 1000)
		r.h.Submit(Request{Type: SpecRead, Core: 1, Addr: addr, Token: 2})
		r.runUntil(t, func() bool { return r.clients[1].gotToken(2) }, 1000)
		if !r.h.BankBusy(ln) || r.clients[0].gotToken(1) {
			t.Fatal("set-up: the GetX finished before the Spec-GetS came back")
		}
		if !r.clients[1].resp(2).Bounced {
			t.Fatal("a Spec-GetS that reached a line a GetX holds was served, want Bounced")
		}
	})

	t.Run("a miss submitted from a fill's delivery", func(t *testing.T) {
		// Core 1 reads the line first, so core 0's read is granted Shared
		// and the ReadExcl that core 0 submits on receiving it is a GetX
		// upgrade of the line the fill just installed.
		r := newRig(t, 2)
		addr := uint64(0x40000)
		r.h.Submit(Request{Type: ReadShared, Core: 1, Addr: addr, Token: 1})
		r.runUntil(t, func() bool { return r.clients[1].gotToken(1) }, 1000)
		cc := &chainClient{h: r.h, onToken: 2,
			next: Request{Type: ReadExcl, Core: 0, Addr: addr, Token: 4}}
		r.h.Connect(0, cc)
		r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr, Token: 2})
		r.step()
		r.h.Submit(Request{Type: ReadShared, Core: 0, Addr: addr + 8, Token: 3})
		r.runUntil(t, func() bool { return cc.gotToken(3) }, 1000)
		if !cc.accepted {
			t.Fatal("the ReadExcl submitted inside the fill's delivery was refused")
		}
		if got := r.h.L1State(0, addr); got != coherence.Shared {
			t.Fatalf("L1 state after the read fill = %v, want S", got)
		}
		r.runUntil(t, func() bool { return cc.gotToken(4) }, 1000)
		if got := cc.tokens(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
			t.Fatalf("tokens answered %v, want [2 3 4]", got)
		}
		if got := r.h.L1State(0, addr); got != coherence.Modified {
			t.Fatalf("L1 state after the upgrade = %v, want M", got)
		}
		if allocs, frees, live, _ := r.h.MSHRAccounting(0); allocs != 2 || frees != 2 || live != 0 {
			t.Fatalf("MSHR accounting allocs=%d frees=%d live=%d, want 2, 2, 0", allocs, frees, live)
		}
	})
}
