package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sched"
	"ltp/internal/workload"
)

// poolExec runs fan-out subtasks on a scheduler pool, as the engine's
// executor does.
type poolExec struct{ p *sched.Pool }

func (x poolExec) RunBatch(ctx context.Context, fns []func(context.Context)) {
	x.p.RunBatch(ctx, sched.TierInteractive, nil, fns)
}

func (x poolExec) Parallelism() int { return x.p.Workers() }

// TestFanOutContainsPanics holds the fan-out contract: a subtask that
// panics — on the calling goroutine or on another pool worker — becomes
// that subtask's error, the others still run, and the batch finishes.
func TestFanOutContainsPanics(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	errOdd := errors.New("odd")
	for round := 0; round < 20; round++ {
		for _, ex := range []Executor{poolExec{pool}, nil} {
			// The panicking subtask releases two others as it unwinds,
			// so whichever goroutines pick those up wait for the panic
			// first; with three goroutines serving four subtasks one of
			// them always reaches the panicking one.
			started := make(chan struct{})
			fns := []func(context.Context) error{
				func(context.Context) error { defer close(started); panic("boom") },
				func(context.Context) error { <-started; return nil },
				func(context.Context) error { <-started; return errOdd },
				func(context.Context) error { return nil },
			}
			errs := FanOut(context.Background(), ex, fns)
			if errs[1] != nil || errs[3] != nil {
				t.Fatalf("round %d: healthy subtasks failed: %v", round, errs)
			}
			if errs[0] == nil || !strings.Contains(errs[0].Error(), "panicked: boom") {
				t.Fatalf("round %d: panicking subtask err = %v; want the panic as an error", round, errs[0])
			}
			if !errors.Is(errs[2], errOdd) {
				t.Fatalf("round %d: subtask error = %v; want %v", round, errs[2], errOdd)
			}
		}
	}
}

// TestWatchdogIsRunError checks that a wedged pipeline fails the run
// with the watchdog's error on every path — a cycle run, a sampled
// run's intervals, and the lanes of a batch — instead of panicking.
func TestWatchdogIsRunError(t *testing.T) {
	wl, err := workload.ByName("indirect")
	if err != nil {
		t.Fatal(err)
	}
	program := wl.Build(0.05)
	spec := func() Spec {
		pcfg := pipeline.DefaultConfig()
		pcfg.WatchdogCycles = 2 // no pipeline commits within two cycles of filling
		return Spec{
			Stream:    prog.NewEmulator(program),
			Pipeline:  pcfg,
			WarmInsts: 1_000,
			MaxInsts:  5_000,
			Intervals: 2,
		}
	}
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Errorf("%s: err = %v; want the watchdog failure", path, err)
		}
	}
	_, err = CycleBackend{}.Run(context.Background(), spec())
	check("cycle", err)
	_, err = SampledBackend{}.Run(context.Background(), spec())
	check("sampled", err)
	detailed := spec()
	detailed.WarmDetailed = true
	_, err = CycleBackend{}.Run(context.Background(), detailed)
	check("cycle detailed warm", err)
	lanes := []Spec{spec(), spec()}
	lanes[1].Stream = nil
	for i, r := range (CycleBackend{}).RunBatch(context.Background(), lanes) {
		check(fmt.Sprintf("batch lane %d", i), r.Err)
	}
}
