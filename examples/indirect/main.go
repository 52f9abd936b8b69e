// Indirect-access sweep (the paper's Fig. 1/Fig. 6 story): sweep the IQ
// size on the indirect-with-payload kernel and show that a small IQ plus
// LTP keeps the memory-level parallelism of a large IQ.
package main

import (
	"context"
	"fmt"
	"os"

	"ltp"
	"ltp/internal/pipeline"
)

func main() {
	const (
		warm   = 100_000
		insts  = 200_000
		scale  = 0.25
		kernel = "indirectwork"
	)

	fmt.Printf("IQ sweep on %q (others at Table 1 sizes)\n\n", kernel)
	fmt.Printf("%6s | %18s | %18s\n", "IQ", "NoLTP  CPI / MLP", "LTP    CPI / MLP")

	for _, iq := range []int{64, 48, 32, 16} {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize = iq
		cfg.IntRegs, cfg.FPRegs = 96, 96

		noltp, err := ltp.RunContext(context.Background(), ltp.RunSpec{
			Workload: kernel, Scale: scale,
			WarmInsts: warm, MaxInsts: insts, Pipeline: &cfg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "indirect:", err)
			os.Exit(1)
		}
		withltp, err := ltp.RunContext(context.Background(), ltp.RunSpec{
			Workload: kernel, Scale: scale,
			WarmInsts: warm, MaxInsts: insts, Pipeline: &cfg, UseLTP: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "indirect:", err)
			os.Exit(1)
		}
		fmt.Printf("%6d | %8.3f / %7.2f | %8.3f / %7.2f\n",
			iq, noltp.CPI, noltp.MLP, withltp.CPI, withltp.MLP)
	}

	fmt.Println("\nWith LTP the CPI and MLP stay near the big-IQ level as the IQ shrinks;")
	fmt.Println("without it, the IQ fills with instructions waiting on misses (paper §1, Fig. 1).")
}
