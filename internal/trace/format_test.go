package trace_test

// ispectr2 format tests: canonical-encoding round trips, corruption
// rejection, and the record -> replay -> re-record fixed-point property
// across the full defense x consistency x kernel matrix.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/isa"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

func TestV2RoundTrip(t *testing.T) {
	orig := workload.MustSPEC("sjeng")
	tr, _ := trace.RecordInterp("v2-roundtrip", orig, 800)
	raw, err := trace.EncodeBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "v2-roundtrip" || len(dec.Programs) != 1 {
		t.Fatalf("decoded header: name %q, %d core(s)", dec.Name, len(dec.Programs))
	}
	if !reflect.DeepEqual(dec.Events, tr.Events) {
		t.Error("decoded events differ from the recording")
	}
	p := dec.Programs[0]
	if !reflect.DeepEqual(p.Insts, orig.Insts) || !reflect.DeepEqual(p.InitMem, orig.InitMem) {
		t.Error("decoded program image differs from the original")
	}
	if p.Entry != orig.Entry || p.Handler != orig.Handler {
		t.Errorf("decoded entry/handler = %d/%d, want %d/%d", p.Entry, p.Handler, orig.Entry, orig.Handler)
	}
	// Labels are dropped, so decoded programs must carry materialised
	// basic-block metadata instead of depending on recomputation.
	if len(p.BlockLen) != len(p.Insts) {
		t.Errorf("decoded BlockLen has %d entries for %d instructions", len(p.BlockLen), len(p.Insts))
	}
	// Canonical encoding: re-encoding the decoded trace is a fixed point.
	again, err := trace.EncodeBytes(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Error("re-encoding a decoded trace changed its bytes")
	}
}

func TestValidateRejections(t *testing.T) {
	prog := workload.MustSPEC("hmmer")
	cases := []struct {
		label string
		t     *trace.Trace
	}{
		{"nil programs", &trace.Trace{Events: [][]trace.Event{{}}}},
		{"zero cores", &trace.Trace{Programs: []*isa.Program{}, Events: [][]trace.Event{}}},
		{"core-count mismatch", &trace.Trace{Programs: []*isa.Program{prog}, Events: [][]trace.Event{{}, {}}}},
		{"backwards clock", &trace.Trace{
			Programs: []*isa.Program{prog},
			Events:   [][]trace.Event{{{Cycle: 9, Op: isa.OpNop}, {Cycle: 3, Op: isa.OpNop}}},
		}},
	}
	for _, c := range cases {
		if err := c.t.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", c.label)
		}
		if _, err := trace.EncodeBytes(c.t); err == nil {
			t.Errorf("%s: EncodeBytes accepted", c.label)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tr, _ := trace.RecordInterp("v2-corrupt", workload.MustSPEC("hmmer"), 200)
	raw, err := trace.EncodeBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Body flip: CRC trailer no longer matches.
	flipped := append([]byte(nil), raw...)
	flipped[12] ^= 0x80
	if _, err := trace.DecodeBytes(flipped); !errors.Is(err, trace.ErrBadCRC) {
		t.Errorf("body flip: err = %v, want ErrBadCRC", err)
	}
	// Truncation anywhere must error, never decode to a shorter trace.
	for _, cut := range []int{4, 8, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := trace.DecodeBytes(raw[:cut]); err == nil {
			t.Errorf("truncation at %d bytes decoded", cut)
		}
	}
	if _, err := trace.DecodeBytes([]byte("xxxxxxxxxxxxxxxx")); !errors.Is(err, trace.ErrBadMagic) {
		t.Errorf("wrong magic: err = %v, want ErrBadMagic", err)
	}
}

// The replay fixed point, over the full configuration matrix: recording a
// live run, replaying the decoded trace's program under the same
// configuration, and re-recording must reproduce the trace byte for byte.
// Within one (defense, consistency) cell the stepped and fast kernels must
// also agree byte for byte — the encoding includes commit cycles, so this
// doubles as a kernel-equivalence fingerprint check.
func TestRecordReplayRerecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full defense x consistency x kernel sweep")
	}
	prog := workload.MustSPEC("hmmer")
	const n = 1000
	for _, d := range config.AllDefenses() {
		for _, cm := range []config.Consistency{config.TSO, config.RC} {
			perKernel := map[engine.Kernel][]byte{}
			for _, k := range []engine.Kernel{engine.KernelStepped, engine.KernelFast} {
				label := fmt.Sprintf("%s/%s/%s", d, cm, k)
				run := config.Run{Machine: config.Default(1), Defense: d, Consistency: cm}
				rec, err := harness.Record(run, "replay-fixed-point", []*isa.Program{prog}, n, harness.WithKernel(k))
				if err != nil {
					t.Fatalf("%s: record: %v", label, err)
				}
				if len(rec.Events[0]) < n {
					t.Fatalf("%s: recorded %d of %d commits", label, len(rec.Events[0]), n)
				}
				enc, err := trace.EncodeBytes(rec)
				if err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				dec, err := trace.DecodeBytes(enc)
				if err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				rerec, err := harness.Record(run, "replay-fixed-point", dec.Programs, n, harness.WithKernel(k))
				if err != nil {
					t.Fatalf("%s: re-record: %v", label, err)
				}
				reenc, err := trace.EncodeBytes(rerec)
				if err != nil {
					t.Fatalf("%s: re-encode: %v", label, err)
				}
				if !bytes.Equal(enc, reenc) {
					t.Errorf("%s: replay-of-replay is not byte-identical", label)
				}
				perKernel[k] = enc
			}
			if !bytes.Equal(perKernel[engine.KernelStepped], perKernel[engine.KernelFast]) {
				t.Errorf("%s/%s: stepped and fast kernels record different trace bytes", d, cm)
			}
		}
	}
}
