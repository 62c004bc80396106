package trace_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/harness"
	"invisispec/internal/isa"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

// roundTrip records evs as a one-core trace of a stand-in program,
// encodes it and decodes it again, and returns the decoded events.
func roundTrip(evs []core.CommitEvent) ([]trace.Event, error) {
	rec := make([]trace.Event, len(evs))
	for i, ev := range evs {
		rec[i] = trace.FromCommit(ev)
	}
	prog := isa.NewBuilder("roundtrip").Halt().MustBuild()
	raw, err := trace.EncodeBytes(&trace.Trace{Name: "roundtrip", Programs: []*isa.Program{prog}, Events: [][]trace.Event{rec}})
	if err != nil {
		return nil, err
	}
	dec, err := trace.DecodeBytes(raw)
	if err != nil {
		return nil, err
	}
	return dec.Events[0], nil
}

func TestRoundTrip(t *testing.T) {
	in := []core.CommitEvent{
		{Cycle: 10, Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.OpLui, Rd: 3}, WroteReg: true, Reg: 3, RegValue: 0xDEADBEEF},
		{Cycle: 10, Seq: 1, PC: 1, Inst: isa.Inst{Op: isa.OpNop}},
		{Cycle: 12, Seq: 2, PC: 2, Inst: isa.Inst{Op: isa.OpLoad}, Fault: true},
		{Cycle: 99, Seq: 3, PC: 7, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1}, WroteReg: true, Reg: 1, RegValue: ^uint64(0)},
	}
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i, ev := range in {
		got := out[i]
		if got.Cycle != ev.Cycle || got.PC != ev.PC || got.Op != ev.Inst.Op ||
			got.Fault != ev.Fault || got.WroteReg != ev.WroteReg ||
			got.Reg != ev.Reg || got.RegValue != ev.RegValue {
			t.Fatalf("event %d: %+v != %+v", i, got, ev)
		}
	}
}

// TestBadMagic feeds the decoder a stream in ispectr1, the events-only
// format ispectr2 replaced: its 8-byte header, then one record (cycle 1,
// pc 0, a nop). It must be refused like any other bytes that are no trace.
func TestBadMagic(t *testing.T) {
	if _, err := trace.DecodeBytes([]byte("ispectr1\x01\x00\x00\x00")); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDiff(t *testing.T) {
	a := []trace.Event{{PC: 1, Op: isa.OpAdd}, {PC: 2, Op: isa.OpNop}}
	if i, _ := trace.Diff(a, a); i != -1 {
		t.Fatalf("identical traces diff at %d", i)
	}
	b := []trace.Event{{PC: 1, Op: isa.OpAdd}, {PC: 3, Op: isa.OpNop}}
	if i, why := trace.Diff(a, b); i != 1 || why == "" {
		t.Fatalf("diff = %d %q", i, why)
	}
	c := a[:1]
	if i, _ := trace.Diff(a, c); i != 1 {
		t.Fatal("length divergence missed")
	}
	// Cycle-count differences are not architectural.
	d := []trace.Event{{PC: 1, Op: isa.OpAdd, Cycle: 500}, {PC: 2, Op: isa.OpNop, Cycle: 900}}
	if i, _ := trace.Diff(a, d); i != -1 {
		t.Fatal("cycle difference treated as divergence")
	}
	// OpCycle register values are timing-defined.
	e := []trace.Event{{PC: 1, Op: isa.OpCycle, WroteReg: true, Reg: 2, RegValue: 7}}
	f := []trace.Event{{PC: 1, Op: isa.OpCycle, WroteReg: true, Reg: 2, RegValue: 9}}
	if i, _ := trace.Diff(e, f); i != -1 {
		t.Fatal("OpCycle value difference treated as divergence")
	}
}

// Every defense must commit the same architectural stream for the same
// program: record every registered scheme and diff them pairwise.
func TestAllDefensesCommitIdenticalStreams(t *testing.T) {
	progs := []*isa.Program{workload.MustSPEC("hmmer")}
	record := func(d config.Defense) []trace.Event {
		r := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
		rec, err := harness.Record(r, "identical-streams", progs, 3000)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := trace.EncodeBytes(rec)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := trace.DecodeBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		return dec.Events[0]
	}
	ref := record(config.Base)
	if len(ref) < 3000 {
		t.Fatalf("reference trace has %d events", len(ref))
	}
	for _, d := range config.AllDefenses()[1:] {
		got := record(d)
		n := len(ref)
		if len(got) < n {
			n = len(got)
		}
		if i, why := trace.Diff(ref[:n], got[:n]); i != -1 {
			t.Errorf("%v diverges from Base at commit %d: %s", d, i, why)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(cycles []uint16, pcs []uint16, ops []uint8, vals []uint64) bool {
		n := len(cycles)
		for _, s := range []int{len(pcs), len(ops), len(vals)} {
			if s < n {
				n = s
			}
		}
		var evs []core.CommitEvent
		cyc := uint64(0)
		for i := 0; i < n; i++ {
			cyc += uint64(cycles[i]) // monotone, as real commits are
			op := isa.Op(ops[i] % 30)
			ev := core.CommitEvent{Cycle: cyc, PC: int(pcs[i]), Inst: isa.Inst{Op: op}}
			if op.HasDest() {
				ev.WroteReg = true
				ev.Reg = uint8(vals[i] % 32)
				ev.RegValue = vals[i]
			}
			evs = append(evs, ev)
		}
		out, err := roundTrip(evs)
		if err != nil || len(out) != len(evs) {
			return false
		}
		for i, ev := range evs {
			g := out[i]
			if g.Cycle != ev.Cycle || g.PC != ev.PC || g.Op != ev.Inst.Op ||
				g.WroteReg != ev.WroteReg || g.Reg != ev.Reg || g.RegValue != ev.RegValue {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
