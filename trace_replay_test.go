package ltp_test

import (
	"bytes"
	"context"
	"testing"

	"ltp"
	"ltp/internal/workload"
)

// diffSpec is the budget every differential run uses: small enough to
// stay in -short, large enough to cross warm-up, parking and DRAM-
// timer activity.
func diffSpec(family string, useLTP bool) ltp.RunSpec {
	return ltp.RunSpec{
		Scenario:  family,
		Seed:      11,
		Scale:     0.05,
		WarmInsts: 4_000,
		MaxInsts:  12_000,
		UseLTP:    useLTP,
	}
}

// TestTraceReplayDifferential records every scenario family's run and
// asserts the replayed run reproduces the recording run's statistics
// bit-identically — every counter, occupancy average and (with LTP)
// parking statistic. This is the contract that makes traces a valid
// substitute for re-emulation in campaigns.
func TestTraceReplayDifferential(t *testing.T) {
	for _, f := range workload.Families() {
		for _, useLTP := range []bool{false, true} {
			name := f.Name
			if useLTP {
				name += "+ltp"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				spec := diffSpec(f.Name, useLTP)
				var buf bytes.Buffer
				spec.RecordTo = &buf
				direct, err := ltp.RunContext(context.Background(), spec)
				if err != nil {
					t.Fatalf("recording run: %v", err)
				}

				spec.RecordTo = nil
				spec.ReplayFrom = bytes.NewReader(buf.Bytes())
				replay, err := ltp.RunContext(context.Background(), spec)
				if err != nil {
					t.Fatalf("replay run: %v", err)
				}

				if direct.Result != replay.Result {
					t.Errorf("pipeline stats drifted under replay:\ndirect: %+v\nreplay: %+v",
						direct.Result, replay.Result)
				}
				if (direct.LTP == nil) != (replay.LTP == nil) {
					t.Fatalf("LTP stats presence drifted: %v vs %v", direct.LTP != nil, replay.LTP != nil)
				}
				if direct.LTP != nil && *direct.LTP != *replay.LTP {
					t.Errorf("LTP stats drifted under replay:\ndirect: %+v\nreplay: %+v",
						*direct.LTP, *replay.LTP)
				}
				if direct.Energy != replay.Energy {
					t.Errorf("energy breakdown drifted under replay")
				}
			})
		}
	}
}

// TestTraceReplayDifferentialKernel covers the fixed-kernel path (the
// paper's Fig. 2 loop) and the detailed warm-up mode, which exercises
// the pipeline-pulled (rather than fast-forwarded) capture path.
func TestTraceReplayDifferentialKernel(t *testing.T) {
	for _, wm := range []ltp.WarmMode{ltp.WarmFast, ltp.WarmDetailed} {
		spec := ltp.RunSpec{
			Workload:  "indirect",
			Scale:     0.05,
			WarmInsts: 4_000,
			WarmMode:  wm,
			MaxInsts:  12_000,
			UseLTP:    true,
		}
		var buf bytes.Buffer
		spec.RecordTo = &buf
		direct, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatalf("%v: recording run: %v", wm, err)
		}
		spec.RecordTo = nil
		spec.ReplayFrom = bytes.NewReader(buf.Bytes())
		replay, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatalf("%v: replay run: %v", wm, err)
		}
		if direct.Result != replay.Result || *direct.LTP != *replay.LTP {
			t.Errorf("%v: stats drifted under replay", wm)
		}
	}
}

// TestTraceReplayCorruptFails asserts a damaged trace fails the run
// with an error instead of returning silently partial statistics.
func TestTraceReplayCorruptFails(t *testing.T) {
	spec := diffSpec("branchy", false)
	var buf bytes.Buffer
	spec.RecordTo = &buf
	if _, err := ltp.RunContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.RecordTo = nil

	// Chop the trace mid-stream: the replay must report truncation.
	cut := buf.Bytes()[:buf.Len()/2]
	spec.ReplayFrom = bytes.NewReader(cut)
	if _, err := ltp.RunContext(context.Background(), spec); err == nil {
		t.Error("truncated trace replayed without error")
	}

	// Same, while re-recording the replay: the reader's error must not
	// be masked by the recorder wrapping it.
	var rebuf bytes.Buffer
	spec.ReplayFrom = bytes.NewReader(cut)
	spec.RecordTo = &rebuf
	if _, err := ltp.RunContext(context.Background(), spec); err == nil {
		t.Error("truncated trace replayed without error while re-recording")
	}
}

// TestTraceReplayBudgetMismatchFails asserts a structurally valid trace
// that is too short for the requested budgets fails the run: silently
// returning the partial (or empty) measured region would let a campaign
// aggregate garbage.
func TestTraceReplayBudgetMismatchFails(t *testing.T) {
	spec := diffSpec("branchy", false)
	var buf bytes.Buffer
	spec.RecordTo = &buf
	if _, err := ltp.RunContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.RecordTo = nil
	raw := buf.Bytes()

	// Larger measured budget than recorded: partial region, must error.
	big := spec
	big.MaxInsts = spec.MaxInsts * 50
	big.ReplayFrom = bytes.NewReader(raw)
	if _, err := ltp.RunContext(context.Background(), big); err == nil {
		t.Error("oversized MaxInsts replay returned silently partial stats")
	}

	// Warm-up larger than the whole trace: empty measured region.
	hot := spec
	hot.WarmInsts = spec.WarmInsts + spec.MaxInsts + 1<<20
	hot.ReplayFrom = bytes.NewReader(raw)
	if _, err := ltp.RunContext(context.Background(), hot); err == nil {
		t.Error("warm-up-eats-trace replay returned silently empty stats")
	}

	// A cycle-capped replay that stops early by the cap is legitimate.
	capped := spec
	capped.MaxCycles = 50
	capped.ReplayFrom = bytes.NewReader(raw)
	if _, err := ltp.RunContext(context.Background(), capped); err != nil {
		t.Errorf("cycle-capped replay rejected: %v", err)
	}
}
