// Command ltpsim runs one workload through the simulated out-of-order core,
// with or without Long Term Parking, and prints the headline metrics.
//
// Examples:
//
//	ltpsim -workload indirect -insts 500000
//	ltpsim -workload indirect -insts 500000 -ltp -mode NU -iq 32 -regs 96
//	ltpsim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list workloads and scenario families, then exit")
		name      = flag.String("workload", "indirect", "workload name")
		scenario  = flag.String("scenario", "", "scenario family name (overrides -workload; see -list)")
		seed      = flag.Int64("seed", 0, "scenario seed (data layouts and constants)")
		record    = flag.String("record", "", "capture the run's µop stream to this trace file")
		replay    = flag.String("replay", "", "replay a recorded trace file instead of a workload")
		insts     = flag.Uint64("insts", 500_000, "detailed instructions to simulate")
		warm      = flag.Uint64("warm", 200_000, "cache warm-up instructions")
		warmMd    = flag.String("warmmode", "fast", "warm-up mode: fast (functional) or detailed (full pipeline)")
		scale     = flag.Float64("scale", 1.0, "working-set scale (0..1]")
		useLTP    = flag.Bool("ltp", false, "enable Long Term Parking")
		mode      = flag.String("mode", "NU", "LTP mode: NU, NR, NR+NU")
		entries   = flag.Int("entries", 128, "LTP entries (<=0 unlimited)")
		ports     = flag.Int("ports", 4, "LTP ports (<=0 unlimited)")
		uit       = flag.Int("uit", 256, "UIT entries (<=0 unlimited)")
		tickets   = flag.Int("tickets", 64, "NR tickets (max 128)")
		oracle    = flag.Bool("oracle", false, "oracle classification (limit study)")
		backend   = flag.String("backend", "cycle", "execution backend: cycle (reference), sampled (checkpointed intervals) or model (fast interval estimate)")
		intervals = flag.Int("intervals", 0, "sampled backend: measured interval count K (0 = default)")
		bpredN    = flag.String("bpred", "", "branch predictor: gshare (default) or tage")
		prefN     = flag.String("prefetcher", "", "L2 prefetcher: none, nextline, stride (default) or stream")
		identN    = flag.String("ltp-ident", "", "LTP identification policy: paper (default) or crit")
		corunner  = flag.String("corunner", "", "comma-separated co-runner scenario families (e.g. memhog,memhog) sharing L2/L3/DRAM")
		iq        = flag.Int("iq", 64, "IQ size")
		regs      = flag.Int("regs", 128, "available int/fp registers (each)")
		lq        = flag.Int("lq", 64, "LQ size")
		sq        = flag.Int("sq", 32, "SQ size")
		verbose   = flag.Bool("v", false, "verbose statistics")
		jsonOut   = flag.Bool("json", false, "emit the full result as JSON (for scripting)")
	)
	flag.Parse()

	if *list {
		for _, s := range ltp.Workloads() {
			fmt.Printf("%-11s %-16s %s\n", s.Name, s.Hint, s.About)
			fmt.Printf("%-11s stands in for: %s\n", "", s.SPECAnalog)
		}
		fmt.Println("\nscenario families (-scenario, seed-replicated; knobs via ltp.RunSpec.Knobs):")
		for _, f := range ltp.Scenarios() {
			fmt.Printf("%-11s %-16s %s\n", f.Name, f.Hint, f.About)
		}
		fmt.Println("\nexecution backends (-backend):")
		for _, b := range ltp.Backends() {
			fmt.Printf("%-11s %-16s %s\n", b.Name, b.Fidelity, b.About)
		}
		fmt.Printf("\nbranch predictors (-bpred): %v\n", ltp.BranchPredictors())
		fmt.Printf("prefetchers (-prefetcher):  %v\n", ltp.Prefetchers())
		return
	}

	wm, err := ltp.ParseWarmMode(*warmMd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpsim:", err)
		os.Exit(2)
	}

	pcfg := pipeline.DefaultConfig()
	pcfg.IQSize = *iq
	pcfg.IntRegs = *regs
	pcfg.FPRegs = *regs
	pcfg.LQSize = *lq
	pcfg.SQSize = *sq

	m, ok := core.ParseMode(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	lcfg := core.DefaultConfig()
	lcfg.Mode = m
	lcfg.Entries = *entries
	lcfg.Ports = *ports
	lcfg.UITEntries = *uit
	lcfg.Tickets = *tickets
	ident, ok := core.ParseIdent(*identN)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown LTP ident policy %q (want paper or crit)\n", *identN)
		os.Exit(2)
	}
	lcfg.Ident = ident

	spec := ltp.RunSpec{
		Workload:  *name,
		Scale:     *scale,
		Seed:      *seed,
		WarmInsts: *warm,
		WarmMode:  wm,
		MaxInsts:  *insts,
		Pipeline:  &pcfg,
		UseLTP:    *useLTP,
		LTP:       &lcfg,
		Oracle:    *oracle,
		Backend:   *backend,
		Intervals: *intervals,

		BranchPred: *bpredN,
		Prefetcher: *prefN,
	}
	if *corunner != "" {
		for _, scn := range strings.Split(*corunner, ",") {
			scn = strings.TrimSpace(scn)
			if scn == "" {
				continue
			}
			spec.Corunners = append(spec.Corunners, ltp.Corunner{Scenario: scn})
		}
	}
	if *scenario != "" {
		spec.Workload = ""
		spec.Scenario = *scenario
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltpsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		spec.Workload, spec.Scenario = "", ""
		spec.ReplayFrom = f
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltpsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		spec.RecordTo = f
	}

	// Ctrl-C / SIGTERM cancels the simulation mid-pipeline (within a
	// few thousand cycles) instead of leaving it to run out the budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := ltp.RunContext(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpsim:", err)
		os.Exit(1)
	}
	if *record != "" {
		fmt.Fprintf(os.Stderr, "trace recorded to %s\n", *record)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "ltpsim:", err)
			os.Exit(1)
		}
		return
	}

	printResult(res, *name, *scenario, *seed, *replay, *verbose)
}

// printResult renders the headline metrics.
func printResult(res ltp.RunResult, name, scenario string, seed int64, replay string, verbose bool) {
	label := name
	switch {
	case replay != "":
		label = "replay:" + replay
	case scenario != "":
		label = fmt.Sprintf("%s(seed=%d)", scenario, seed)
	}
	fmt.Printf("workload=%s insts=%d cycles=%d\n", label, res.Committed, res.Cycles)
	fmt.Printf("CPI=%.3f IPC=%.3f MLP=%.2f avgLoadLat=%.1f\n", res.CPI, res.IPC, res.MLP, res.AvgLoadLatency)
	fmt.Printf("occupancy: IQ=%.1f ROB=%.1f LQ=%.1f SQ=%.1f intRF=%.1f fpRF=%.1f\n",
		res.AvgIQ, res.AvgROB, res.AvgLQ, res.AvgSQ, res.AvgIntRF, res.AvgFPRF)
	if res.LTP != nil {
		fmt.Printf("ltp: parked=%.1f regs=%.1f loads=%.1f stores=%.1f enabled=%.0f%% (total parked %d, forced %d)\n",
			res.LTP.AvgInsts, res.LTP.AvgRegs, res.LTP.AvgLoads, res.LTP.AvgStores,
			res.LTP.EnabledFrac*100, res.LTP.ParkedTotal, res.LTP.ForcedParks)
	}
	if s := res.Sampling; s != nil {
		fmt.Printf("sampling: K=%d measured=%d/%d insts (%.1f%%) CPI=%.3f ±%.3f (95%% CI)\n",
			s.Intervals, s.SampledInsts, res.Committed,
			100*float64(s.SampledInsts)/float64(res.Committed),
			s.CPI.Mean, s.CPI.CI95)
	}
	if verbose {
		fmt.Printf("loads=%d (L1 %d / L2 %d / L3 %d / DRAM %d) stores=%d\n",
			res.Loads, res.LoadLevel[0], res.LoadLevel[1], res.LoadLevel[2], res.LoadLevel[3], res.Stores)
		fmt.Printf("branches=%d mispredicts=%d squashes=%d prefetches=%d\n",
			res.Branches, res.Mispredicts, res.Squashes, res.PrefIssued)
		fmt.Printf("stalls: rob=%d iq=%d regs=%d lq=%d sq=%d ltp=%d\n",
			res.StallROB, res.StallIQ, res.StallRegs, res.StallLQ, res.StallSQ, res.StallLTP)
		fmt.Printf("energy: IQ=%.3g RF=%.3g LTP=%.3g (IQRF=%.3g)\n",
			res.Energy.IQ, res.Energy.RF, res.Energy.LTP, res.Energy.IQRF)
		if res.LTP != nil {
			fmt.Printf("ltp detail: urgent=%d nonready=%d uitLen=%d llpredAcc=%.2f pressureWakes=%d\n",
				res.LTP.ClassUrgent, res.LTP.ClassNonReady, res.LTP.UITLen, res.LTP.LLPredAcc, res.LTP.PressureWakes)
		}
	}
}
