package defense

import (
	"strings"
	"testing"
)

func TestBuiltinRegistrations(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("registry has %d schemes, want 7", len(all))
	}
	// Registration order is the paper's figure order followed by the two
	// post-paper schemes; All() must preserve it so every matrix (bench
	// columns, leakage report, conformance sweep) stays stable.
	wantOrder := []string{"Base", "Fe-Sp", "IS-Sp", "Fe-Fu", "IS-Fu", "SpecBox", "BasicBlocker"}
	for i, s := range all {
		if s.Name != wantOrder[i] {
			t.Errorf("All()[%d] = %q, want %q", i, s.Name, wantOrder[i])
		}
	}
	names := Names()
	for i, n := range names {
		if n != wantOrder[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, n, wantOrder[i])
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Name = "clobbered"
	if All()[0].Name != "Base" {
		t.Fatal("mutating All()'s result corrupted the registry")
	}
}

func TestRegisterRejections(t *testing.T) {
	cases := []struct {
		label string
		name  string
		want  string
	}{
		{"duplicate", "Base", "duplicate"},
		{"empty", "", "empty name"},
		{"comma", "a,b", "name"},
		{"space", "a b", "name"},
		{"tab", "a\tb", "name"},
		{"newline", "a\nb", "name"},
	}
	for _, c := range cases {
		err := Register(Scheme{Name: c.name})
		if err == nil {
			t.Errorf("%s: Register(%q) accepted", c.label, c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.want)
		}
	}
	if len(All()) != 7 {
		t.Fatalf("rejected registrations leaked into the registry: %v", Names())
	}
}

func TestLookup(t *testing.T) {
	for _, n := range Names() {
		s, err := Lookup(n)
		if err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
			continue
		}
		if s.Name != n {
			t.Errorf("Lookup(%q).Name = %q", n, s.Name)
		}
	}
	_, err := Lookup("NoSuchScheme")
	if err == nil {
		t.Fatal("Lookup resolved an unregistered name")
	}
	// The error must list the registered names so a CLI typo is
	// self-diagnosing.
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("Lookup error %q does not list %q", err, n)
		}
	}
}
