// Meltdown-style exception attack: shows why the paper defines the
// Futuristic attack model. A privileged load's value is forwarded to
// transient instructions before the fault squashes them. IS-Spectre, which
// only guards branch speculation, does NOT stop this (§IV); IS-Future does.
//
//	go run ./examples/meltdown-exception
package main

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

const secret = 0x5A

func main() {
	fmt.Println("Meltdown-style attack: a privileged load faults at retirement,")
	fmt.Println("but its dependent transient instructions touch a probe line first.")
	fmt.Printf("The secret byte is %#x.\n\n", secret)

	for _, d := range []config.Defense{config.Base, config.ISSpectre, config.ISFuture} {
		run := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
		m := sim.MustNew(run, []*isa.Program{workload.Meltdown(secret)})
		if err := m.RunToCompletion(30_000_000); err != nil {
			panic(err)
		}
		idx, lat := workload.LeakedByte(workload.ScanLatencies(m.Mem, workload.MeltdownResultsBase, workload.MeltdownProbeLines))
		leaked := idx == secret && lat < 20
		switch {
		case leaked && d == config.ISSpectre:
			fmt.Printf("%-6s leaked %#x — exceptions are OUTSIDE the Spectre attack model\n", d.String(), idx)
		case leaked:
			fmt.Printf("%-6s leaked %#x\n", d.String(), idx)
		default:
			fmt.Printf("%-6s attack defeated\n", d.String())
		}
	}
	fmt.Println()
	fmt.Println("This is the paper's motivation for the Futuristic model: any")
	fmt.Println("squashable load is a threat, not just loads behind branches.")
}
