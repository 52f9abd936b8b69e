package ltp

// The scenario-matrix campaign: the cross-product of {scenario family ×
// processor configuration × N seeds}, aggregated as mean ± 95%
// confidence intervals. It replaces single-seed figure points with a
// statistically honest population. A matrix is one shape of sweep:
// NewMatrixSweep builds it, and Engine.Submit runs it like any other.

import (
	"fmt"

	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// MatrixConfig is one processor configuration column of the matrix.
type MatrixConfig struct {
	// Name labels the configuration in tables.
	Name string
	// Pipeline configures the core (nil = Table 1 baseline).
	Pipeline *pipeline.Config
	// UseLTP attaches the parking unit, configured by LTP (nil = the
	// paper's realistic design).
	UseLTP bool
	// LTP configures the parking unit when UseLTP is set.
	LTP *core.Config
}

// DefaultMatrixConfigs returns the standard three-column comparison:
// the Table 1 baseline, the shrunken core LTP targets, and that core
// with LTP attached.
func DefaultMatrixConfigs() []MatrixConfig {
	small := pipeline.DefaultConfig()
	small.IQSize, small.IntRegs, small.FPRegs = 32, 96, 96
	smallLTP := small
	return []MatrixConfig{
		{Name: "IQ64"},
		{Name: "IQ32", Pipeline: &small},
		{Name: "IQ32+LTP", Pipeline: &smallLTP, UseLTP: true},
	}
}

// NewMatrixSweep builds the scenario-matrix campaign as a sweep over
// base: a "scenario" axis (empty scenarios = every family), a "config"
// axis (empty configs = DefaultMatrixConfigs), and a replicated "seed"
// axis of seeds replicates (seeds <= 0 = 3), replicate k running with
// seed base.Seed + k. Cells are scenario-major, then config, each
// aggregating its seeds into mean ± 95% CI summaries.
func NewMatrixSweep(base RunSpec, scenarios []string, configs []MatrixConfig, seeds int) (SweepSpec, error) {
	if len(scenarios) == 0 {
		scenarios = workload.FamilyNames()
	}
	if len(configs) == 0 {
		configs = DefaultMatrixConfigs()
	}
	if seeds <= 0 {
		seeds = 3
	}
	scnAxis := SweepAxis{Name: "scenario"}
	for _, name := range scenarios {
		if _, err := workload.FamilyByName(name); err != nil {
			return SweepSpec{}, err
		}
		scnAxis.Points = append(scnAxis.Points, SweepPoint{
			Name: name, Patch: RunPatch{Scenario: &name},
		})
	}
	cfgAxis := SweepAxis{Name: "config"}
	for _, cfg := range configs {
		// Each column spells out its whole core and parking unit, so
		// it means the same whatever the base says.
		pcfg := pipeline.DefaultConfig()
		if cfg.Pipeline != nil {
			pcfg = *cfg.Pipeline
		}
		var lcfg *core.Config
		if cfg.UseLTP {
			c := core.DefaultConfig()
			if cfg.LTP != nil {
				c = *cfg.LTP
			}
			lcfg = &c
		}
		cfgAxis.Points = append(cfgAxis.Points, SweepPoint{
			Name:  cfg.Name,
			Patch: RunPatch{Pipeline: &pcfg, UseLTP: &cfg.UseLTP, LTP: lcfg},
		})
	}
	seedAxis := SweepAxis{Name: "seed", Replicate: true}
	for k := 0; k < seeds; k++ {
		seed := base.Seed + int64(k)
		seedAxis.Points = append(seedAxis.Points, SweepPoint{
			Name: fmt.Sprintf("seed%d", seed), Patch: RunPatch{Seed: &seed},
		})
	}
	return SweepSpec{Base: base, Axes: []SweepAxis{scnAxis, cfgAxis, seedAxis}}, nil
}
