package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		if err := Default(n).Validate(); err != nil {
			t.Errorf("Default(%d): %v", n, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Machine)
		want string
	}{
		{"zero cores", func(m *Machine) { m.Cores = 0 }, "Cores"},
		{"too many cores", func(m *Machine) { m.Cores = 9 }, "mesh"},
		{"zero rob", func(m *Machine) { m.ROBEntries = 0 }, "queue sizes"},
		{"lq over rob", func(m *Machine) { m.LQEntries = 500 }, "cannot exceed ROB"},
		{"bad sets", func(m *Machine) { m.L1D.SizeBytes = 3000 }, "sets"},
		{"no mshrs", func(m *Machine) { m.L1D.MSHRs = 0 }, "MSHRs"},
	}
	for _, c := range cases {
		m := Default(1)
		c.mod(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDefenseClassification(t *testing.T) {
	if len(AllDefenses()) != 7 {
		t.Fatalf("defense count = %d", len(AllDefenses()))
	}
	// The five Table V configurations must come first, in figure order,
	// so committed artifacts and figure columns stay stable.
	wantOrder := []Defense{Base, FenceSpectre, ISSpectre, FenceFuture, ISFuture, SpecBox, BasicBlocker}
	for i, d := range AllDefenses() {
		if d != wantOrder[i] {
			t.Errorf("AllDefenses()[%d] = %v, want %v", i, d, wantOrder[i])
		}
	}
	wantIS := map[Defense]bool{ISSpectre: true, ISFuture: true, SpecBox: true}
	for _, d := range AllDefenses() {
		if d.UsesInvisiSpec() != wantIS[d] {
			t.Errorf("%v UsesInvisiSpec = %v", d, d.UsesInvisiSpec())
		}
	}
}

func TestParseDefense(t *testing.T) {
	for _, d := range AllDefenses() {
		got, err := ParseDefense(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDefense(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDefense("NoSuchScheme"); err == nil {
		t.Error("ParseDefense accepted an unregistered name")
	}
	if _, err := Defense("NoSuchScheme").Scheme(); err == nil {
		t.Error("Scheme() resolved an unregistered name")
	}
	all, err := ParseDefenses("")
	if err != nil || len(all) != len(AllDefenses()) {
		t.Errorf("ParseDefenses(\"\") = %v, %v", all, err)
	}
	got, err := ParseDefenses(" Base , IS-Fu ")
	if err != nil || len(got) != 2 || got[0] != Base || got[1] != ISFuture {
		t.Errorf("ParseDefenses(\" Base , IS-Fu \") = %v, %v", got, err)
	}
	if _, err := ParseDefenses("Base,NoSuchScheme"); err == nil {
		t.Error("ParseDefenses accepted an unregistered name")
	}
}

func TestStrings(t *testing.T) {
	names := map[string]bool{}
	for _, d := range AllDefenses() {
		s := d.String()
		if s == "" || names[s] {
			t.Errorf("bad or duplicate defense name %q", s)
		}
		names[s] = true
	}
	if TSO.String() != "TSO" || RC.String() != "RC" {
		t.Error("consistency names wrong")
	}
	if Defense("").String() == "" || Consistency(99).String() == "" {
		t.Error("out-of-range values must still print")
	}
	r := Run{Machine: Default(1), Defense: ISFuture, Consistency: RC}
	if r.String() != "IS-Fu/RC" {
		t.Errorf("Run.String() = %q", r.String())
	}
}

func TestCacheParamsSets(t *testing.T) {
	p := CacheParams{SizeBytes: 64 << 10, Ways: 8}
	if got := p.Sets(); got != 128 {
		t.Fatalf("Sets = %d, want 128", got)
	}
}

func TestTableIVParameters(t *testing.T) {
	// Pin the paper's Table IV values so accidental edits are caught.
	m := Default(8)
	if m.ROBEntries != 192 || m.LQEntries != 32 || m.SQEntries != 32 {
		t.Error("core queue sizes diverge from Table IV")
	}
	if m.L1D.SizeBytes != 64<<10 || m.L1D.Ways != 8 || m.L1D.Ports != 3 {
		t.Error("L1D diverges from Table IV")
	}
	if m.L1I.SizeBytes != 32<<10 || m.L1I.Ways != 4 {
		t.Error("L1I diverges from Table IV")
	}
	if m.L2.SizeBytes != 2<<20 || m.L2.Ways != 16 || m.L2.LatencyRT != 8 {
		t.Error("L2 diverges from Table IV")
	}
	if m.MeshW != 4 || m.MeshH != 2 || m.LinkBytes != 16 {
		t.Error("mesh diverges from Table IV")
	}
	if m.DRAMLatency != 100 {
		t.Error("DRAM latency diverges from Table IV (50 ns at 2 GHz)")
	}
	if m.Bpred.BTBEntries != 4096 || m.Bpred.RASEntries != 16 {
		t.Error("predictor diverges from Table IV")
	}
	if m.HWPrefetch {
		t.Error("Table IV lists no hardware prefetcher; default must be off")
	}
	if m.TrustSafeAnnotations {
		t.Error("the §XI optimization must be off by default")
	}
}
