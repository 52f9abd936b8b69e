package main

// Incremental campaigns: -exp snapshot freezes a result store's
// contents into a manifest (one content address per line), and
// -exp diff submits the scenario matrix with that manifest as
// SweepSpec.SinceSnapshot — banked runs stream as "cached" lines and
// never simulate, new runs stream as "new" lines and (with -store)
// are banked for the next diff. Grow the matrix between runs (-seeds,
// -scenarios, -insts) and only the delta costs anything.
//
//	ltpexperiments -exp diff -quick -store results.store -seeds 2
//	ltpexperiments -exp snapshot -store results.store > before.manifest
//	ltpexperiments -exp diff -quick -store results.store -seeds 3 -manifest before.manifest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"ltp"
	"ltp/internal/experiment"
	"ltp/internal/store"
)

// snapshotManifest renders the store's current keys as a manifest.
func snapshotManifest(path string) (string, error) {
	st, err := store.OpenRead(path)
	if err != nil {
		return "", err
	}
	defer st.Close()
	var b strings.Builder
	if err := st.WriteManifest(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// snapshotKeys loads the snapshot to diff against: the manifest file
// when given, else the store's current keys (an absent store file is
// an empty snapshot — the first diff of a campaign runs everything).
func snapshotKeys(storePath, manifestPath string) ([]string, error) {
	if manifestPath != "" {
		f, err := os.Open(manifestPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return store.ReadManifest(f)
	}
	if storePath == "" {
		return nil, fmt.Errorf("-exp diff needs -store or -manifest (a snapshot to diff against)")
	}
	st, err := store.OpenRead(storePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Keys(), nil
}

// diffCampaign runs the scenario matrix as an incremental sweep: one
// line per enumerated run, "cached" for snapshot-skipped, "new" for
// everything that executed this time, then a summary.
func diffCampaign(s *experiment.Suite, scenarios []string, seeds, parallel int, storePath, manifestPath string) (string, error) {
	snapshot, err := snapshotKeys(storePath, manifestPath)
	if err != nil {
		return "", err
	}
	sweep, err := ltp.NewMatrixSweep(ltp.RunSpec{
		Scale:     s.Scale,
		WarmInsts: s.WarmInsts,
		WarmMode:  s.WarmMode,
		MaxInsts:  s.DetailInsts,
		Backend:   s.Backend,
	}, scenarios, nil, seeds)
	if err != nil {
		return "", err
	}
	sweep.SinceSnapshot = snapshot

	// The engine banks every fresh simulation in the store, so the next
	// diff's snapshot includes this run's work.
	e, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: parallel, StorePath: storePath})
	if err != nil {
		return "", err
	}
	defer e.Close()
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	for c := range job.Cells() {
		status := "new"
		if c.Outcome == "cached" {
			status = "cached"
		}
		fmt.Fprintf(&b, "%-6s  %s  %s\n", status, c.Hash, strings.Join(c.Coords, "/"))
	}
	if _, err := job.Wait(); err != nil {
		return "", err
	}
	p := job.Progress()
	fmt.Fprintf(&b, "\n%d runs enumerated: %d already in the snapshot, %d executed (%d simulated, %d from store, %d from cache)\n",
		p.TotalRuns, p.SnapshotSkipped, int64(p.TotalRuns)-p.SnapshotSkipped,
		p.CacheMisses, p.StoreHits, p.CacheHits+p.CacheShared)
	return b.String(), nil
}
