// Spectre attack walk-through: mounts the paper's Figure 1 attack on every
// defense configuration and reports whether the secret leaks — the
// paper's proof-of-concept analysis (§IX-A) extended to all of Table V.
//
//	go run ./examples/spectre-attack
package main

import (
	"fmt"
	"sort"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

const secret = 84 // the paper's value

func main() {
	fmt.Println("Spectre variant 1 (Figure 1): the attacker trains the victim's")
	fmt.Println("bounds check, calls it out of bounds, and times probe lines.")
	fmt.Printf("The secret byte is %d.\n\n", secret)

	for _, d := range config.AllDefenses() {
		run := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
		m := sim.MustNew(run, []*isa.Program{workload.SpectreV1(secret)})
		if err := m.RunToCompletion(30_000_000); err != nil {
			panic(err)
		}
		all := workload.SpectreScanLatencies(m.Mem)
		idx, lat := workload.LeakedByte(all[:])
		med := median(all[:])
		leaked := idx == secret && lat*2 < med
		verdict := "attack DEFEATED (no probe line stands out)"
		if leaked {
			verdict = fmt.Sprintf("attack SUCCEEDED (recovered %d, %d vs median %d cycles)", idx, lat, med)
		}
		fmt.Printf("%-6s %s\n", d.String(), verdict)
	}
	fmt.Println()
	fmt.Println("Base leaks; both fence designs and both InvisiSpec designs block")
	fmt.Println("the leak — InvisiSpec at a fraction of the fences' cost (Figure 4).")
}

func median(lat []uint64) uint64 {
	s := append([]uint64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
