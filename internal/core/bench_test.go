package core

import (
	"testing"

	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/workload"
)

// BenchmarkCycleSelectWake times the cycle loop where select and LTP
// wakeup dominate: the Fig. 6 limit study (chains on an unlimited
// IQ/RF/LQ/SQ core with an unlimited oracle NR+NU LTP) and the realistic
// design (hashjoin on IQ32/RF96 with the default queue LTP). One op is
// opCycles cycles of a warmed pipeline; ns/cycle is the per-cycle cost
// and allocs/op shows the steady state allocates next to nothing.
func BenchmarkCycleSelectWake(b *testing.B) {
	const (
		opCycles = 10_000
		warm     = 20_000  // cycles before timing starts
		budget   = 500_000 // instructions one pipeline simulates
	)
	limit := func() (pipeline.Config, Config) {
		pc := pipeline.DefaultConfig()
		pc.IQSize, pc.IntRegs, pc.FPRegs = pipeline.Inf, pipeline.Inf, pipeline.Inf
		pc.LQSize, pc.SQSize = pipeline.Inf, pipeline.Inf
		pc.Hier.L1DMSHRs, pc.Hier.L2MSHRs = 0, 0
		pc.LateLSQAlloc = true
		return pc, Config{Mode: ModeNRNU, Tickets: 128, UITWays: 4}
	}
	realistic := func() (pipeline.Config, Config) {
		pc := pipeline.DefaultConfig()
		pc.IQSize, pc.IntRegs, pc.FPRegs = 32, 96, 96
		return pc, DefaultConfig()
	}
	chains, err := workload.ByName("chains")
	if err != nil {
		b.Fatal(err)
	}
	hashjoin, err := workload.FamilyByName("hashjoin")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cfg    func() (pipeline.Config, Config)
		build  func() *prog.Program
		oracle bool
	}{
		{"chains-limit-NRNU", limit, func() *prog.Program { return chains.Build(0.05) }, true},
		{"hashjoin-IQ32-LTP", realistic, func() *prog.Program { return hashjoin.Build(nil, 0.5, 1) }, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			var pipe *pipeline.Pipeline
			fresh := func() {
				pcfg, lcfg := c.cfg()
				p := c.build()
				if c.oracle {
					lcfg.Oracle = BuildOracle(p, budget, pcfg.Hier, pcfg.ROBSize)
				}
				pipe, _ = newLTPPipeline(pcfg, lcfg, p)
				for pipe.Now() < warm {
					pipe.Cycle()
				}
			}
			fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pipe.Committed() > budget/2 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				for n := 0; n < opCycles; n++ {
					pipe.Cycle()
				}
			}
			if err := pipe.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opCycles), "ns/cycle")
		})
	}
}
