// Pointer chasing: the paper's hard case. A single dependent chain
// (ptrchase1) cannot overlap misses no matter the window — LTP "can do
// little to hide the full DRAM latency" (§4.2) — while many parallel
// chains (chains, astar-like) recover their MLP with LTP on a small core.
// This example also shows the Non-Ready (ticket) design from the Appendix.
package main

import (
	"context"
	"fmt"
	"os"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
)

// run simulates kernel on the small core, exiting on error.
func run(kernel string, useLTP bool, mode core.Mode) ltp.RunResult {
	cfg := pipeline.DefaultConfig()
	cfg.IQSize = 32
	cfg.IntRegs, cfg.FPRegs = 96, 96
	lcfg := core.DefaultConfig()
	lcfg.Mode = mode
	r, err := ltp.RunContext(context.Background(), ltp.RunSpec{
		Workload: kernel, Scale: 0.25,
		WarmInsts: 50_000, MaxInsts: 150_000,
		Pipeline: &cfg, UseLTP: useLTP, LTP: &lcfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pointerchase:", err)
		os.Exit(1)
	}
	return r
}

func main() {
	fmt.Println("Small core (IQ:32 RF:96); NU = queue-based LTP, NR+NU = with tickets")
	fmt.Printf("%-12s %-14s %8s %8s %9s\n", "kernel", "config", "CPI", "MLP", "parked")

	for _, kernel := range []string{"ptrchase1", "chains"} {
		base := run(kernel, false, core.ModeOff)
		nu := run(kernel, true, core.ModeNU)
		nrnu := run(kernel, true, core.ModeNRNU)
		fmt.Printf("%-12s %-14s %8.2f %8.2f %9s\n", kernel, "no LTP", base.CPI, base.MLP, "-")
		fmt.Printf("%-12s %-14s %8.2f %8.2f %9.1f\n", kernel, "LTP (NU)", nu.CPI, nu.MLP, nu.LTP.AvgInsts)
		fmt.Printf("%-12s %-14s %8.2f %8.2f %9.1f\n", kernel, "LTP (NR+NU)", nrnu.CPI, nrnu.MLP, nrnu.LTP.AvgInsts)
	}

	fmt.Println("\nptrchase1: one dependent chain, MLP pinned near 1 — parking cannot help;")
	fmt.Println("chains: ten independent chains — LTP keeps them all in flight on a small core.")
}
