// Energy sweep (the paper's Fig. 10 story): vary LTP size and ports for
// the IQ:32/RF:96 design and report performance and IQ/RF ED²P relative to
// the IQ:64/RF:128 baseline, using the first-order energy model from §5.5.
package main

import (
	"context"
	"fmt"
	"os"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/energy"
	"ltp/internal/pipeline"
)

// run simulates kernel on cfg (with lcfg's parking unit when non-nil),
// exiting on error.
func run(kernel string, cfg pipeline.Config, lcfg *core.Config) ltp.RunResult {
	r, err := ltp.RunContext(context.Background(), ltp.RunSpec{Workload: kernel, Scale: 0.25,
		WarmInsts: 50_000, MaxInsts: 150_000, Pipeline: &cfg,
		UseLTP: lcfg != nil, LTP: lcfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "energysweep:", err)
		os.Exit(1)
	}
	return r
}

func main() {
	const kernel = "gather"

	base := run(kernel, pipeline.DefaultConfig(), nil) // IQ 64 / RF 128

	smallCfg := pipeline.DefaultConfig()
	smallCfg.IQSize = 32
	smallCfg.IntRegs, smallCfg.FPRegs = 96, 96

	fmt.Printf("workload %q: LTP size/port sweep at IQ:32/RF:96 vs base IQ:64/RF:128\n\n", kernel)
	fmt.Printf("%10s %6s | %8s %10s\n", "entries", "ports", "perf %", "ED2P %")

	noLTP := run(kernel, smallCfg, nil)
	fmt.Printf("%10s %6s | %8.1f %10.1f   <- just shrinking the IQ/RF\n", "-", "-",
		energy.RelativePerf(noLTP.Cycles, base.Cycles),
		energy.RelativeED2P(noLTP.Energy.IQRF, noLTP.Cycles, base.Energy.IQRF, base.Cycles))

	for _, entries := range []int{128, 64, 32} {
		for _, ports := range []int{1, 4} {
			lcfg := core.DefaultConfig()
			lcfg.Entries = entries
			lcfg.Ports = ports
			r := run(kernel, smallCfg, &lcfg)
			fmt.Printf("%10d %6d | %8.1f %10.1f\n", entries, ports,
				energy.RelativePerf(r.Cycles, base.Cycles),
				energy.RelativeED2P(r.Energy.IQRF, r.Cycles, base.Energy.IQRF, base.Cycles))
		}
	}
	fmt.Println("\nA 128-entry 4-port LTP restores the big core's performance while the")
	fmt.Println("IQ/RF energy-delay² drops — the queue costs far less than IQ CAM entries (§5.5).")
}
