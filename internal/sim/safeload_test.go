package sim_test

import (
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// The §XI safe-load-annotation extension: annotated loads bypass the USL
// machinery when (and only when) the machine is configured to trust them.
func TestSafeAnnotationsBypassUSLMachinery(t *testing.T) {
	// A loop of annotated loads behind data-dependent branches.
	b := isa.NewBuilder("safe")
	b.DataU64(0x10000, 5, 6, 7, 8)
	b.Li(1, 0x10000).
		Li(2, 2000).
		Li(3, 0)
	b.Label("loop").
		LdSafe(8, 4, 1, 0).
		Add(3, 3, 4).
		AndI(5, 3, 3).
		Bne(5, 0, "skip").
		Xor(3, 3, 4)
	b.Label("skip").
		AddI(2, 2, -1).
		Bne(2, 0, "loop").
		Halt()
	p := b.MustBuild()

	for _, trust := range []bool{false, true} {
		run := config.Run{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.TSO}
		run.Machine.TrustSafeAnnotations = trust
		m := sim.MustNew(run, []*isa.Program{p})
		if err := m.RunToCompletion(4_000_000); err != nil {
			t.Fatal(err)
		}
		c := m.Stats.Cores[0]
		usls := c.USLsIssued + c.SBReuseHits
		if trust && usls != 0 {
			t.Errorf("trusted annotations still issued %d USLs", usls)
		}
		if !trust && usls == 0 {
			t.Error("untrusted annotations issued no USLs — flag leaking?")
		}
	}
}

// The attack's loads are NOT annotated, so turning the optimization on must
// not re-open the Spectre leak.
func TestSafeAnnotationsDoNotWeakenDefense(t *testing.T) {
	run := config.Run{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.TSO}
	run.Machine.TrustSafeAnnotations = true
	m := sim.MustNew(run, []*isa.Program{workload.SpectreV1(secret)})
	if err := m.RunToCompletion(20_000_000); err != nil {
		t.Fatal(err)
	}
	lat := workload.SpectreScanLatencies(m.Mem)
	med := median(lat)
	if lat[secret]*2 < med {
		t.Fatalf("secret line latency %d below median %d — annotations re-opened the leak", lat[secret], med)
	}
}

// A maliciously annotated transmit load WOULD leak — demonstrating exactly
// why the optimization expands the trusted computing base (the test pins
// down the documented threat-model boundary).
func TestMaliciousSafeAnnotationLeaks(t *testing.T) {
	p := workload.SpectreV1Annotated(84)
	run := config.Run{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.TSO}
	run.Machine.TrustSafeAnnotations = true
	m := sim.MustNew(run, []*isa.Program{p})
	if err := m.RunToCompletion(20_000_000); err != nil {
		t.Fatal(err)
	}
	all := workload.SpectreScanLatencies(m.Mem)
	idx, lat := workload.LeakedByte(all[:])
	med := median(all)
	if idx != 84 || lat*2 >= med {
		t.Fatalf("malicious annotations should leak (got idx %d lat %d med %d)", idx, lat, med)
	}
}
