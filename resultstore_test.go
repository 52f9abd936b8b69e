package ltp_test

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"ltp"
	"ltp/internal/store"
)

// storeSpecs is one tiny cell per backend: the differential below must
// hold for every fidelity tier, since all three flow through the same
// cache key space and the same stored-record shape.
func storeSpecs() []ltp.RunSpec {
	return []ltp.RunSpec{
		{Scenario: "branchy", Scale: 0.05, MaxInsts: 5_000},
		{Scenario: "branchy", Scale: 0.05, MaxInsts: 5_000, Backend: ltp.BackendModel},
		{Scenario: "ptrchase", Scale: 0.05, MaxInsts: 40_000, Backend: ltp.BackendSampled, Intervals: 4},
	}
}

// TestStoreWarmEngineDifferential holds the tentpole acceptance
// criterion: an engine warmed from a store written by an earlier
// engine returns byte-identical RunResults for all three backends
// without re-simulating anything — zero cache misses, every cell a
// store hit.
func TestStoreWarmEngineDifferential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	specs := storeSpecs()

	cold := newTestEngine(t, ltp.EngineConfig{Parallelism: 2, StorePath: path})
	want := make([]ltp.RunResult, len(specs))
	for i, spec := range specs {
		res, outcome, _, err := cold.RunCached(context.Background(), spec)
		if err != nil {
			t.Fatalf("cold run %d: %v", i, err)
		}
		if outcome.String() != "miss" {
			t.Fatalf("cold run %d outcome %q; want miss", i, outcome)
		}
		want[i] = res
	}
	if st, ok := cold.StoreStats(); !ok || st.Appends != uint64(len(specs)) {
		t.Fatalf("cold store stats %+v, ok=%v; want %d appends", st, ok, len(specs))
	}
	cold.Close()

	warm := newTestEngine(t, ltp.EngineConfig{Parallelism: 2, StorePath: path})
	defer warm.Close()
	for i, spec := range specs {
		res, outcome, _, err := warm.RunCached(context.Background(), spec)
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if outcome.String() != "store" {
			t.Fatalf("warm run %d outcome %q; want store", i, outcome)
		}
		if !reflect.DeepEqual(res, want[i]) {
			t.Fatalf("warm run %d result drifted through the store:\ncold: %+v\nwarm: %+v", i, want[i], res)
		}
	}
	cs := warm.CacheStats()
	if cs.Misses != 0 || cs.StoreHits != uint64(len(specs)) {
		t.Fatalf("warm cache stats %+v; want zero misses, %d store hits", cs, len(specs))
	}
	ss, ok := warm.StoreStats()
	if !ok || ss.Hits != uint64(len(specs)) || ss.Appends != 0 {
		t.Fatalf("warm store stats %+v; want %d hits, no appends", ss, len(specs))
	}
	if keys := warm.StoreKeys(); len(keys) != len(specs) {
		t.Fatalf("StoreKeys = %d addresses; want %d", len(keys), len(specs))
	}
}

// TestStoreWarmSweep runs a whole campaign against a store, restarts
// the engine, resubmits, and demands cell-identical aggregates with
// zero simulations.
func TestStoreWarmSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.store")
	sweep, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}

	cold := newTestEngine(t, ltp.EngineConfig{Parallelism: 4, StorePath: path})
	job, err := cold.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()

	warm := newTestEngine(t, ltp.EngineConfig{Parallelism: 4, StorePath: path})
	defer warm.Close()
	job2, err := warm.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := job2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted campaign drifted:\ncold: %+v\nwarm: %+v", want, got)
	}
	p := job2.Progress()
	if p.CacheMisses != 0 || p.StoreHits != int64(p.TotalRuns) {
		t.Fatalf("warm progress %+v; want every run a store hit", p)
	}
}

// TestSweepSinceSnapshotFullSkip submits a sweep whose entire
// enumeration is in the snapshot: nothing executes, every run streams
// as an Outcome "cached" cell, and the aggregate still carries each
// cell's coordinates.
func TestSweepSinceSnapshotFullSkip(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	sweep, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}
	sweep.SinceSnapshot = sweepRunHashes(t, sweep)

	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	var cached int
	for c := range job.Cells() {
		if c.Outcome != "cached" {
			t.Fatalf("cell %d outcome %q; want cached", c.Index, c.Outcome)
		}
		if c.Hash == "" || len(c.Coords) != 3 {
			t.Fatalf("skipped cell lost its identity: %+v", c)
		}
		cached++
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	p := job.Progress()
	if cached != p.TotalRuns || p.SnapshotSkipped != int64(p.TotalRuns) || p.DoneRuns != p.TotalRuns {
		t.Fatalf("progress %+v with %d cached cells; want all %d skipped", p, cached, p.TotalRuns)
	}
	if p.CacheMisses != 0 || p.CacheHits != 0 {
		t.Fatalf("fully skipped sweep still touched the cache: %+v", p)
	}
	for _, c := range res.Cells {
		if len(c.Coords) != 2 {
			t.Fatalf("skipped cell has no coordinates: %+v", c)
		}
		if c.Replicates != 0 {
			t.Fatalf("skipped cell claims %d replicates", c.Replicates)
		}
	}
}

// TestSweepSinceSnapshotPartialSkip pins the incremental-campaign
// semantics: only the runs outside the snapshot simulate, and their
// cells aggregate normally while snapshot cells stay empty.
func TestSweepSinceSnapshotPartialSkip(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	sweep, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}
	hashes := sweepRunHashes(t, sweep)
	sweep.SinceSnapshot = hashes[:len(hashes)/2]

	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	p := job.Progress()
	skipped := int64(len(hashes) / 2)
	if p.SnapshotSkipped != skipped {
		t.Fatalf("progress %+v; want %d snapshot-skipped", p, skipped)
	}
	if p.CacheMisses != int64(p.TotalRuns)-skipped {
		t.Fatalf("progress %+v; want the other %d runs simulated", p, int64(p.TotalRuns)-skipped)
	}
	var withData int
	for _, c := range res.Cells {
		if len(c.Coords) != 2 {
			t.Fatalf("cell lost coordinates: %+v", c)
		}
		if c.Replicates > 0 {
			withData++
		}
	}
	if withData == 0 || withData == len(res.Cells) {
		t.Fatalf("partial skip produced %d/%d populated cells; want a strict mix", withData, len(res.Cells))
	}
}

// TestSweepSinceSnapshotHash checks the address semantics: a real
// snapshot changes the sweep hash (a diffed campaign runs different
// work), while foreign hashes normalize away entirely — spec and
// address both collapse to the snapshot-free sweep.
func TestSweepSinceSnapshotHash(t *testing.T) {
	base, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	diffed := base
	diffed.SinceSnapshot = sweepRunHashes(t, base)[:1]
	hd, err := diffed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hd == h0 {
		t.Fatal("snapshot did not change the sweep hash")
	}

	foreign := base
	foreign.SinceSnapshot = []string{"rs2:not-a-real-cell", "garbage"}
	canon, err := foreign.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if len(canon.SinceSnapshot) != 0 {
		t.Fatalf("foreign hashes survived normalization: %v", canon.SinceSnapshot)
	}
	if hf, _ := foreign.Hash(); hf != h0 {
		t.Fatalf("foreign-hash snapshot perturbed the address: %s vs %s", hf, h0)
	}
}

// TestSweepSinceSnapshotRejectsTriage: a triage ranking over a
// partially skipped population would be meaningless.
func TestSweepSinceSnapshotRejectsTriage(t *testing.T) {
	sweep, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}
	sweep.Triage = &ltp.TriageSpec{TopK: 1}
	sweep.SinceSnapshot = []string{"rs2:anything"}
	if _, err := sweep.Canonical(); err == nil {
		t.Fatal("triage sweep with since_snapshot accepted")
	}
}

// sweepRunHashes enumerates a sweep's run addresses the way campaign
// diffing does: one single-cell canonical hash per enumerated run.
func sweepRunHashes(t *testing.T, sweep ltp.SweepSpec) []string {
	t.Helper()
	runs, err := sweep.Runs()
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(runs))
	for i, r := range runs {
		hashes[i] = r.Hash
	}
	return hashes
}

// TestStoreHashVersionDrift holds the cross-version compatibility
// contract: a store file written under an older run-spec hash version
// (rs2-keyed records, or a record whose embedded key no longer matches
// its physical address) must degrade to clean cache misses when
// reopened under rs3 — the engine re-simulates and appends fresh
// records, and none of the old ones are miscounted as corruption.
// CorruptSkipped is reserved for damaged log suffixes; decode drift is
// a semantic miss, not file damage.
func TestStoreHashVersionDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.store")
	spec := ltp.RunSpec{Scenario: "branchy", Scale: 0.05, MaxInsts: 5_000}
	key, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Forge the older-era file: two well-formed records under rs2-style
	// keys, plus one record sitting AT the spec's rs3 address whose
	// embedded key field disagrees with it — the exact shape a
	// hash-version migration leaves behind.
	old, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"rs2:0a0a", "rs2:0b0b"} {
		payload, _ := json.Marshal(map[string]any{"key": k, "spec": map[string]any{}, "result": map[string]any{}})
		if err := old.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	drifted, _ := json.Marshal(map[string]any{"key": "rs2:0a0a", "spec": map[string]any{}, "result": map[string]any{}})
	if err := old.Put(key, drifted); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2, StorePath: path})
	defer e.Close()
	ss, ok := e.StoreStats()
	if !ok {
		t.Fatal("engine has no store")
	}
	if ss.CorruptSkipped != 0 {
		t.Fatalf("decode drift miscounted as corruption: CorruptSkipped = %d", ss.CorruptSkipped)
	}
	if ss.Records != 3 {
		t.Fatalf("reopened store holds %d records; want 3", ss.Records)
	}

	res, outcome, _, err := e.RunCached(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.String() != "miss" {
		t.Fatalf("outcome %q; want a clean miss past the drifted record", outcome)
	}
	if res.CPI <= 0 {
		t.Fatalf("re-simulated result is empty: %+v", res)
	}

	// Same engine, second ask: the in-memory cache now serves it.
	_, outcome2, _, err := e.RunCached(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome2.String() != "hit" {
		t.Fatalf("second outcome %q; want hit", outcome2)
	}
	if ss, _ = e.StoreStats(); ss.CorruptSkipped != 0 {
		t.Fatalf("CorruptSkipped drifted to %d after the run", ss.CorruptSkipped)
	}
}
