// Multiprocessor example: runs a lock-heavy PARSEC-like kernel on the
// 8-core machine under every defense and both memory models, showing the
// coherence- and consistency-level behaviour InvisiSpec was designed around
// (validations, exposures, early squashes on invalidations).
//
//	go run ./examples/parsec-multicore
package main

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/harness"
	"invisispec/internal/stats"
)

func main() {
	const kernel = "fluidanimate" // fine-grained ticket locks, 8 threads
	fmt.Printf("%s on the 8-core Table IV machine (40k instructions measured)\n\n", kernel)
	fmt.Printf("%-6s %-4s %8s %10s %12s %12s %12s\n",
		"config", "mdl", "CPI", "squash/Mi", "validations", "exposures", "early-sq")
	for _, cm := range []config.Consistency{config.TSO, config.RC} {
		for _, d := range config.AllDefenses() {
			r, err := harness.MeasureWorkload(kernel, d, cm, 10000, 40000)
			if err != nil {
				panic(err)
			}
			c := r.Core
			fmt.Printf("%-6s %-4s %8.2f %10.0f %12d %12d %12d\n",
				d, cm, r.CPI(), c.SquashesPerMInst(),
				c.Validations(), c.Exposures, c.Squashes[stats.SquashEarly])
		}
		fmt.Println()
	}
	fmt.Println("A lock kernel validates a lot under BOTH models: spin loads that")
	fmt.Println("reuse an older USL's SB line must validate (a stale snapshot could")
	fmt.Println("otherwise retire — see DESIGN.md), and under RC the acquire")
	fmt.Println("barriers force validations that plain data-parallel code avoids.")
}
