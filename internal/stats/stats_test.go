package stats

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestCoreRates(t *testing.T) {
	c := Core{Cycles: 1000, Retired: 2000, CondBranches: 100, Mispredicts: 7}
	if got := c.IPC(); got != 2.0 {
		t.Errorf("IPC = %f", got)
	}
	if got := c.MispredictRate(); got != 0.07 {
		t.Errorf("mispredict rate = %f", got)
	}
	c.Squashes[SquashBranch] = 3
	c.Squashes[SquashValidation] = 1
	if got := c.SquashesPerMInst(); got != 2000 {
		t.Errorf("squashes/Minst = %f", got)
	}
	var zero Core
	if zero.IPC() != 0 || zero.MispredictRate() != 0 || zero.SquashesPerMInst() != 0 {
		t.Error("zero-core rates must be zero, not NaN")
	}
}

func TestValidationsSum(t *testing.T) {
	c := Core{ValidationsL1Hit: 3, ValidationsL1Miss: 4}
	if c.Validations() != 7 {
		t.Errorf("Validations = %d", c.Validations())
	}
}

// counters returns pointers to every counter of c — each uint64 field and
// each element of a uint64-array field, in declaration order — failing on
// any field that is not a counter.
func counters(t *testing.T, c *Core) []*uint64 {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	var out []*uint64
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Uint64:
			out = append(out, f.Addr().Interface().(*uint64))
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			for k := 0; k < f.Len(); k++ {
				out = append(out, f.Index(k).Addr().Interface().(*uint64))
			}
		default:
			t.Fatalf("Core.%s is a %s, not a uint64 counter", v.Type().Field(i).Name, f.Type())
		}
	}
	return out
}

// fill sets counter k of c to base + step*k, so every counter differs.
func fill(t *testing.T, c *Core, base, step uint64) {
	t.Helper()
	for k, p := range counters(t, c) {
		*p = base + step*uint64(k)
	}
}

// TestMachineAggregation fills every counter of every core with a distinct
// value and checks Sum adds each one, without allocating.
func TestMachineAggregation(t *testing.T) {
	m := NewMachine(3)
	for i := range m.Cores {
		fill(t, &m.Cores[i], uint64(1000*(i+1)), 1)
	}
	s := m.Sum()
	got := counters(t, &s)
	if want := int(unsafe.Sizeof(Core{}) / 8); len(got) != want {
		t.Fatalf("walked %d counters, Core holds %d words", len(got), want)
	}
	for k, p := range got {
		// Counter k of core i holds 1000(i+1)+k.
		if want := 6000 + 3*uint64(k); *p != want {
			t.Errorf("summed counter %d = %d, want %d", k, *p, want)
		}
	}
	if s.Cycles != 6000 || s.Retired != 6003 || s.L1DMisses != 6000+3*uint64(len(got)-1) {
		t.Errorf("Sum misplaced named counters: %+v", s)
	}
	if m.TotalRetired() != s.Retired {
		t.Errorf("TotalRetired = %d, Sum().Retired = %d", m.TotalRetired(), s.Retired)
	}
	if allocs := testing.AllocsPerRun(100, func() { s = m.Sum() }); allocs != 0 {
		t.Errorf("Sum allocates %v times per call", allocs)
	}
	m.AddTraffic(TrafficSpecLoad, 100)
	m.AddTraffic(TrafficNormal, 11)
	if m.TotalTraffic() != 111 {
		t.Errorf("TotalTraffic = %d", m.TotalTraffic())
	}
}

// TestSubDeltas fills every counter of two snapshots with distinct values
// and checks Sub differences each one, without allocating.
func TestSubDeltas(t *testing.T) {
	var now, prev Core
	fill(t, &now, 5000, 1)
	fill(t, &prev, 100, 2)
	d := now.Sub(prev)
	for k, p := range counters(t, &d) {
		if want := 4900 - uint64(k); *p != want {
			t.Errorf("counter %d delta = %d, want %d", k, *p, want)
		}
	}
	if d.Cycles != 4900 || d.Retired != 4899 || d.Squashes[SquashEarly] != 4900-4-uint64(SquashEarly) {
		t.Errorf("Sub misplaced named counters: %+v", d)
	}
	if allocs := testing.AllocsPerRun(100, func() { d = now.Sub(prev) }); allocs != 0 {
		t.Errorf("Sub allocates %v times per call", allocs)
	}
}

func TestEnumStrings(t *testing.T) {
	for r := SquashReason(0); r < NumSquashReasons; r++ {
		if r.String() == "" {
			t.Errorf("squash reason %d unprintable", r)
		}
	}
	if SquashReason(99).String() == "" {
		t.Error("out-of-range squash reason unprintable")
	}
	for c := TrafficClass(0); c < NumTrafficClasses; c++ {
		if c.String() == "" {
			t.Errorf("traffic class %d unprintable", c)
		}
	}
	if TrafficClass(99).String() == "" {
		t.Error("out-of-range traffic class unprintable")
	}
}
