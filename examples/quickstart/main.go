// Quickstart: simulate the paper's Fig. 2 example loop on the baseline
// core and on the LTP design, and print the classification the UIT
// learned for each static instruction — reproducing the paper's Fig. 2
// table and its headline claim (a half-size IQ + LTP keeps the MLP).
package main

import (
	"context"
	"fmt"
	"os"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// The `indirect` workload is the paper's Fig. 2 loop:
	//   loop: A addrA = baseA + j    E j = j - 8     I i = i + 8
	//         B t1 = load addrA      F d = d + 5     J t2 = j
	//         C addrB = baseB + t1   G addrC = ...   K bge t2, loop
	//         D d = load addrB       H store d
	wl, err := ltp.WorkloadByName("indirect")
	if err != nil {
		return err
	}
	program := wl.Build(0.25)
	fmt.Println("The paper's Fig. 2 loop in the micro-ISA:")
	fmt.Println(program.Listing())

	// Baseline big core (Table 1): IQ 64, 128 registers.
	ctx := context.Background()
	base, err := ltp.RunContext(ctx, ltp.RunSpec{
		Workload: "indirect", Scale: 0.25,
		WarmInsts: 100_000, MaxInsts: 200_000,
	})
	if err != nil {
		return err
	}

	// The paper's proposal: IQ 32, 96 registers, 128-entry 4-port LTP.
	small := pipeline.DefaultConfig()
	small.IQSize = 32
	small.IntRegs, small.FPRegs = 96, 96
	withLTP, err := ltp.RunContext(ctx, ltp.RunSpec{
		Workload: "indirect", Scale: 0.25,
		WarmInsts: 100_000, MaxInsts: 200_000,
		Pipeline: &small, UseLTP: true,
	})
	if err != nil {
		return err
	}
	// And the same small core without LTP, to see what parking buys.
	noLTP, err := ltp.RunContext(ctx, ltp.RunSpec{
		Workload: "indirect", Scale: 0.25,
		WarmInsts: 100_000, MaxInsts: 200_000,
		Pipeline: &small,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-28s %8s %8s %10s\n", "configuration", "CPI", "MLP", "IQ in use")
	fmt.Printf("%-28s %8.3f %8.2f %10.1f\n", "baseline IQ:64 RF:128", base.CPI, base.MLP, base.AvgIQ)
	fmt.Printf("%-28s %8.3f %8.2f %10.1f\n", "small IQ:32 RF:96", noLTP.CPI, noLTP.MLP, noLTP.AvgIQ)
	fmt.Printf("%-28s %8.3f %8.2f %10.1f\n", "small + LTP (128, 4p)", withLTP.CPI, withLTP.MLP, withLTP.AvgIQ)
	if withLTP.LTP != nil {
		fmt.Printf("\nLTP parked %.1f instructions on average (%.1f deferred registers), enabled %.0f%% of the time\n",
			withLTP.LTP.AvgInsts, withLTP.LTP.AvgRegs, withLTP.LTP.EnabledFrac*100)
	}

	// Show what the UIT learned: run a dedicated pipeline so we can
	// inspect the unit afterwards (the classification of Fig. 2).
	fmt.Println("\nUIT classification after 50k instructions (paper Fig. 2):")
	lcfg := core.DefaultConfig()
	unit := core.New(lcfg, small.Hier.DRAMLatency, small.Hier.TagEarlyLead)
	pipe := pipeline.New(small, prog.NewEmulator(program), unit)
	pipe.Run(50_000, 0)
	for i, in := range program.Insts {
		if in.Label == "" {
			continue
		}
		class := "Non-Urgent (parked)"
		if unit.UITTable().Urgent(prog.PCOf(i)) {
			class = "Urgent     (to IQ)"
		}
		fmt.Printf("  %s  %-24s %s\n", in.Label, in.String(), class)
	}
	return nil
}
