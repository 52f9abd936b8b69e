package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// smokeSize runs every workload and probe at a fiftieth of the
// benchmark's budgets: enough to exercise each path end to end, with
// its checks, in seconds.
const smokeSize = 0.02

func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			env := newPassEnv(ctx, defaultSeed, smokeSize, time.Now(), newTracer())
			if w.name == "service" {
				env.store = filepath.Join(t.TempDir(), "prebank.store")
				if err := service.prebank(ctx, env.store, defaultSeed, smokeSize); err != nil {
					t.Fatal(err)
				}
			}
			w.pass(env)
			if env.out.Failed > 0 || env.out.Attempted == 0 {
				t.Fatalf("pass: %d of %d operations failed: %v", env.out.Failed, env.out.Attempted, env.out.Errors)
			}
			if len(env.out.Spans) == 0 {
				t.Error("a traced pass recorded no spans")
			}
			for _, d := range endToEnd {
				if _, ok := env.out.Metrics[d.name]; !ok && !ungated[d.name] {
					t.Errorf("pass reported no %s", d.name)
				}
			}

			in, err := w.inputs(defaultSeed, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			m, err := runProbes(ctx, in, smokeSize, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				v, ok := m[d.name]
				if ungated[d.name] || d.name == "bench.trace_overhead_pct" {
					continue // from the traced pass, not the probes
				}
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("probes reported %s = %v (present %v)", d.name, v, ok)
				}
			}
		})
	}
}
