package ltp

// The generalized sweep: a campaign is a base RunSpec plus a list of
// axes, each axis a list of named declarative patches, and the
// campaign's cell population is the cross-product of the axes applied
// to the base. The scenario×config×seed matrix is exactly one shape of
// sweep — NewMatrixSweep constructs it — but a sweep can
// vary anything a canonicalizable RunSpec can express: structure sizes
// (IQ/ROB/LQ/SQ, rename registers), the LTP mode, warm-up modes and
// budgets, scenario knobs, seeds. Axes are declarative (patches, not
// functions) precisely so every cell canonicalizes and hashes: the
// sweep's identity is its labeled cell population, which is what keeps
// arbitrary axes content-addressable in the result cache.

import (
	"fmt"
	"sort"

	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/stats"
	"ltp/internal/workload"
)

// RunPatch is one declarative override set applied to a base RunSpec.
// Nil fields leave the base untouched; the structure-size fields
// (IQSize … FPRegs) tweak individual pipeline.Config fields on top of
// whatever Pipeline the spec has at that point (base default, or an
// earlier axis's full-config override), and Mode tweaks the LTP
// configuration the same way. Patches compose: axes apply in spec
// order, later axes seeing earlier axes' effects.
type RunPatch struct {
	// Workload selects a fixed kernel (RunSpec.Canonical resolves a
	// workload/scenario overlap in the kernel's favour, as Run does).
	Workload *string `json:"workload,omitempty"`
	// Scenario selects a scenario family.
	Scenario *string `json:"scenario,omitempty"`
	// Knobs replaces the scenario knob overrides.
	Knobs *workload.Knobs `json:"knobs,omitempty"`
	// Seed sets the scenario seed (the matrix's replicate axis).
	Seed *int64 `json:"seed,omitempty"`
	// Scale sets the working-set scale.
	Scale *float64 `json:"scale,omitempty"`
	// WarmInsts sets the warm-up budget.
	WarmInsts *uint64 `json:"warm_insts,omitempty"`
	// WarmMode sets the warm-up execution path.
	WarmMode *WarmMode `json:"warm_mode,omitempty"`
	// MaxInsts sets the measured budget.
	MaxInsts *uint64 `json:"max_insts,omitempty"`
	// Pipeline replaces the whole core configuration.
	Pipeline *pipeline.Config `json:"pipeline,omitempty"`
	// IQSize tweaks the instruction-queue size.
	IQSize *int `json:"iq_size,omitempty"`
	// ROBSize tweaks the reorder-buffer size.
	ROBSize *int `json:"rob_size,omitempty"`
	// LQSize tweaks the load-queue size.
	LQSize *int `json:"lq_size,omitempty"`
	// SQSize tweaks the store-queue size.
	SQSize *int `json:"sq_size,omitempty"`
	// IntRegs tweaks the available integer rename registers.
	IntRegs *int `json:"int_regs,omitempty"`
	// FPRegs tweaks the available FP rename registers.
	FPRegs *int `json:"fp_regs,omitempty"`
	// BranchPred selects the branch predictor ("gshare", "tage").
	BranchPred *string `json:"branch_pred,omitempty"`
	// Prefetcher selects the L2 prefetch engine ("none", "nextline",
	// "stride", "stream").
	Prefetcher *string `json:"prefetcher,omitempty"`
	// Corunners replaces the co-runner stream list (empty slice =
	// detach all co-runners).
	Corunners *[]Corunner `json:"corunners,omitempty"`
	// UseLTP attaches or detaches the parking unit.
	UseLTP *bool `json:"use_ltp,omitempty"`
	// LTP replaces the whole parking-unit configuration.
	LTP *core.Config `json:"ltp,omitempty"`
	// Mode tweaks the parking-class selection on the LTP configuration
	// (paper default when the spec has none yet).
	Mode *Mode `json:"mode,omitempty"`
	// Ident tweaks the LTP identification policy ("paper", "crit") on
	// the LTP configuration, like Mode.
	Ident *string `json:"ident,omitempty"`
	// Backend selects the execution backend ("cycle", "sampled",
	// "model") — the sweep's fidelity axis. Replicate axes may not
	// patch it: each cell's mean ± CI must aggregate runs of a single
	// fidelity.
	Backend *string `json:"backend,omitempty"`
	// Intervals sets the sampled backend's interval count K
	// (RunSpec.Intervals); the other backends ignore it.
	Intervals *int `json:"intervals,omitempty"`
}

// apply returns the base spec with the patch's overrides applied.
func (p RunPatch) apply(s RunSpec) RunSpec {
	if p.Workload != nil {
		s.Workload = *p.Workload
	}
	if p.Scenario != nil {
		s.Scenario = *p.Scenario
	}
	if p.Knobs != nil {
		k := *p.Knobs
		s.Knobs = &k
	}
	if p.Seed != nil {
		s.Seed = *p.Seed
	}
	if p.Scale != nil {
		s.Scale = *p.Scale
	}
	if p.WarmInsts != nil {
		s.WarmInsts = *p.WarmInsts
	}
	if p.WarmMode != nil {
		s.WarmMode = *p.WarmMode
	}
	if p.MaxInsts != nil {
		s.MaxInsts = *p.MaxInsts
	}
	if p.Pipeline != nil {
		cfg := *p.Pipeline
		s.Pipeline = &cfg
	}
	if p.IQSize != nil || p.ROBSize != nil || p.LQSize != nil ||
		p.SQSize != nil || p.IntRegs != nil || p.FPRegs != nil {
		cfg := pipeline.DefaultConfig()
		if s.Pipeline != nil {
			cfg = *s.Pipeline
		}
		set := func(dst *int, v *int) {
			if v != nil {
				*dst = *v
			}
		}
		set(&cfg.IQSize, p.IQSize)
		set(&cfg.ROBSize, p.ROBSize)
		set(&cfg.LQSize, p.LQSize)
		set(&cfg.SQSize, p.SQSize)
		set(&cfg.IntRegs, p.IntRegs)
		set(&cfg.FPRegs, p.FPRegs)
		s.Pipeline = &cfg
	}
	if p.BranchPred != nil {
		s.BranchPred = *p.BranchPred
	}
	if p.Prefetcher != nil {
		s.Prefetcher = *p.Prefetcher
	}
	if p.Corunners != nil {
		s.Corunners = append([]Corunner(nil), (*p.Corunners)...)
	}
	if p.UseLTP != nil {
		s.UseLTP = *p.UseLTP
	}
	if p.LTP != nil {
		cfg := *p.LTP
		s.LTP = &cfg
	}
	if p.Mode != nil {
		cfg := core.DefaultConfig()
		if s.LTP != nil {
			cfg = *s.LTP
		}
		cfg.Mode = *p.Mode
		s.LTP = &cfg
	}
	if p.Ident != nil {
		cfg := core.DefaultConfig()
		if s.LTP != nil {
			cfg = *s.LTP
		}
		// SweepSpec.Canonical refuses a name ParseIdent does not know.
		cfg.Ident, _ = core.ParseIdent(*p.Ident)
		s.LTP = &cfg
	}
	if p.Backend != nil {
		s.Backend = *p.Backend
	}
	if p.Intervals != nil {
		s.Intervals = *p.Intervals
	}
	return s
}

// SweepPoint is one value along an axis: a table label plus the patch
// that realizes it.
type SweepPoint struct {
	// Name labels the point in cell coordinates and tables.
	Name string `json:"name"`
	// Patch is the override set this point applies.
	Patch RunPatch `json:"patch"`
}

// SweepAxis is one dimension of the cross-product.
type SweepAxis struct {
	// Name labels the axis (unique within the sweep).
	Name string `json:"name"`
	// Points are the axis's values, in sweep order (at least one).
	Points []SweepPoint `json:"points"`
	// Replicate marks a statistical axis: its points do not form cells
	// of their own but are aggregated into each cell's mean ± 95% CI
	// summaries (the matrix's seed axis).
	Replicate bool `json:"replicate,omitempty"`
}

// TriageSpec turns a sweep into a two-phase fidelity-triage campaign:
// every enumerated run first executes on the fast "model" backend, the
// cells are ranked by their model-estimated mean CPI, and the TopK
// best (lowest-CPI) cells are re-run cycle-accurately. One job, two
// phases: the job streams the model pre-pass and the detailed re-runs
// as distinct cell events (CellResult.Phase "triage" and "detail"),
// and the detailed runs are hashed exactly like directly submitted
// cycle-backend cells, so their cached results are shared either way.
type TriageSpec struct {
	// TopK is how many cells (by ascending model-estimated mean CPI)
	// are re-run on the cycle-accurate backend. It must be at least 1
	// and at most the sweep's cell count.
	TopK int `json:"top_k"`
}

// SweepSpec describes a generalized sweep campaign: Base patched by
// the cross-product of Axes. The zero Axes sweep is a single cell
// (just Base). Submit it with Engine.Submit; scenario matrices are one
// constructor away (NewMatrixSweep).
type SweepSpec struct {
	// Base is the template spec every cell starts from. It need not be
	// runnable on its own (an axis may supply the scenario), but every
	// patched cell must canonicalize — Canonical rejects sweeps whose
	// cells cannot be content-addressed.
	Base RunSpec `json:"base"`
	// Axes are the sweep dimensions, applied in order.
	Axes []SweepAxis `json:"axes"`
	// Triage, when non-nil, runs the sweep as a two-phase fidelity
	// triage (model pre-pass, then TopK cells cycle-accurately). The
	// enumerated cells must all be cycle-backend cells.
	Triage *TriageSpec `json:"triage,omitempty"`
	// SinceSnapshot turns the sweep into an incremental campaign: runs
	// whose content address (RunSpec.Hash) appears in this set are not
	// executed — they stream immediately as Outcome "cached" cells and
	// count into Progress.SnapshotSkipped — so only the cells new since
	// a store snapshot simulate. Populate it from a store manifest
	// (store.ReadManifest) or a live store (Engine.StoreKeys). Canonical
	// normalizes it to the sorted intersection with the sweep's own run
	// addresses: hashes the sweep never enumerates are discarded, so
	// equal effective diffs hash equally. Incompatible with Triage,
	// whose ranking needs every cell's model estimate.
	SinceSnapshot []string `json:"since_snapshot,omitempty"`

	// canonical marks a value returned by Canonical, letting Hash, Runs
	// and Engine.Submit skip re-validating (and re-enumerating) an
	// already-normalized sweep; hash and runs carry the content address
	// and the admitted runs computed during that validation. Zero on
	// every caller-constructed spec.
	canonical bool
	hash      string
	runs      []SweepRun
}

// MaxSweepRuns bounds how many simulations one sweep may enumerate.
// Canonical rejects larger (or point-count-overflowing) sweeps before
// any cross-product is materialized, so a hostile or typo'd axis list
// cannot allocate the enumeration. The service applies far tighter
// limits (internal/server Limits) on top.
const MaxSweepRuns = 1 << 20

// Canonical validates the sweep and returns it in normal form: axis
// and point names must be present and unique (per sweep and per axis
// respectively), every axis needs at least one point, an Ident patch
// must name a known policy, every enumerated cell spec must have a
// canonical form (see RunSpec.Canonical — this is what keeps arbitrary
// axes cache-keyable, and it is checked here, once, rather than
// cell-by-cell at run time), and the enumerated runs must be pairwise
// distinct. The distinctness rule catches axes whose patches have no
// effect — e.g. a seed axis over a fixed-kernel base, which
// RunSpec.Canonical would silently zero: every "replicate" would be the
// same simulation, and the resulting zero-variance mean ± CI would
// masquerade as real replication.
//
// Canonical also keeps the sweep's content address and every run's
// canonical spec and address, so a later Hash, Runs or Engine.Submit on
// the returned value is free. Do not edit the returned value: Submit
// would run the runs kept from before the edit.
func (s SweepSpec) Canonical() (SweepSpec, error) {
	if s.canonical {
		return s, nil
	}
	seenAxis := map[string]bool{}
	total := 1
	for ai, ax := range s.Axes {
		// Bound the cross-product before anything enumerates it: the
		// product of point counts must stay within MaxSweepRuns (this
		// also rules out int overflow, since every factor is >= 1).
		if len(ax.Points) > 0 {
			total *= len(ax.Points)
			if total > MaxSweepRuns {
				return SweepSpec{}, fmt.Errorf("ltp: sweep enumerates more than %d runs", MaxSweepRuns)
			}
		}
		if ax.Name == "" {
			return SweepSpec{}, fmt.Errorf("ltp: sweep axis %d has no name", ai)
		}
		if seenAxis[ax.Name] {
			return SweepSpec{}, fmt.Errorf("ltp: duplicate sweep axis %q", ax.Name)
		}
		seenAxis[ax.Name] = true
		if len(ax.Points) == 0 {
			return SweepSpec{}, fmt.Errorf("ltp: sweep axis %q has no points", ax.Name)
		}
		seenPoint := map[string]bool{}
		for pi, pt := range ax.Points {
			if pt.Name == "" {
				return SweepSpec{}, fmt.Errorf("ltp: axis %q point %d has no name", ax.Name, pi)
			}
			if seenPoint[pt.Name] {
				return SweepSpec{}, fmt.Errorf("ltp: axis %q has duplicate point %q", ax.Name, pt.Name)
			}
			seenPoint[pt.Name] = true
			if id := pt.Patch.Ident; id != nil {
				if _, ok := core.ParseIdent(*id); !ok {
					return SweepSpec{}, fmt.Errorf("ltp: axis %q point %q: LTP identification policy %q unknown (want paper or crit)", ax.Name, pt.Name, *id)
				}
			}
			// Replicates aggregate into one mean ± CI; pooling samples
			// of different fidelities there would launder estimates
			// into measurements.
			if ax.Replicate && pt.Patch.Backend != nil {
				return SweepSpec{}, fmt.Errorf(
					"ltp: replicate axis %q patches the backend; replicates must aggregate a single fidelity (make %q a non-replicate axis)",
					ax.Name, ax.Name)
			}
			if ax.Replicate && pt.Patch.Intervals != nil {
				return SweepSpec{}, fmt.Errorf(
					"ltp: replicate axis %q patches intervals; replicates must aggregate one estimator, not a mix of sampling depths (make %q a non-replicate axis)",
					ax.Name, ax.Name)
			}
		}
	}
	if s.Triage != nil {
		t := *s.Triage
		if cells := s.CellCount(); t.TopK < 1 || t.TopK > cells {
			return SweepSpec{}, fmt.Errorf("ltp: triage top_k = %d out of range [1, %d] (the sweep's cell count)", t.TopK, s.CellCount())
		}
		if len(s.SinceSnapshot) > 0 {
			// Triage ranks cells by their model estimates; skipping runs
			// would rank a partial population.
			return SweepSpec{}, fmt.Errorf("ltp: triage sweeps cannot use since_snapshot (the pre-pass must estimate every cell)")
		}
		s.Triage = &t
	}
	hash, snapshot, runs, err := s.computeHash()
	if err != nil {
		return SweepSpec{}, err
	}
	s.SinceSnapshot, s.canonical, s.hash, s.runs = snapshot, true, hash, runs
	return s, nil
}

// TotalRuns returns the number of simulations the sweep enumerates
// (the product of every axis's point count).
func (s SweepSpec) TotalRuns() int {
	total := 1
	for _, ax := range s.Axes {
		total *= len(ax.Points)
	}
	return total
}

// CellCount returns the number of result cells (the product of the
// non-replicate axes' point counts).
func (s SweepSpec) CellCount() int {
	cells := 1
	for _, ax := range s.Axes {
		if !ax.Replicate {
			cells *= len(ax.Points)
		}
	}
	return cells
}

// Replicates returns the number of runs aggregated into each cell (the
// product of the replicate axes' point counts).
func (s SweepSpec) Replicates() int {
	reps := 1
	for _, ax := range s.Axes {
		if ax.Replicate {
			reps *= len(ax.Points)
		}
	}
	return reps
}

// enumerate lists the sweep's cross-product in row-major order (last
// axis varies fastest — for NewMatrixSweep that is scenario-major,
// then config, then seed, matching the matrix's own enumeration), each
// run's spec patched but not yet admitted.
func (s SweepSpec) enumerate() []SweepRun {
	total := s.TotalRuns()
	out := make([]SweepRun, 0, total)
	idx := make([]int, len(s.Axes))
	for n := 0; n < total; n++ {
		spec := s.Base
		coords := make([]string, len(s.Axes))
		cell, rep := 0, 0
		for ai, ax := range s.Axes {
			pt := ax.Points[idx[ai]]
			spec = pt.Patch.apply(spec)
			coords[ai] = pt.Name
			if ax.Replicate {
				rep = rep*len(ax.Points) + idx[ai]
			} else {
				cell = cell*len(ax.Points) + idx[ai]
			}
		}
		out = append(out, SweepRun{Index: n, Spec: spec, Coords: coords, Cell: cell, Replicate: rep})
		for ai := len(s.Axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(s.Axes[ai].Points) {
				break
			}
			idx[ai] = 0
		}
	}
	return out
}

// sweepSpecHashVersion versions the sweep hash serialization (see
// runSpecHashVersion).
const sweepSpecHashVersion = "sw1"

// Hash returns a stable content address ("sw1:<hex>") of the sweep's
// labeled cell population: the axis structure plus, per enumerated
// run, its coordinates and its cell's RunSpec.Hash. Two sweeps that
// enumerate identical cells under identical labels hash identically,
// however their patches spelled those cells — in particular equivalent
// NewMatrixSweep spellings of one matrix hash equally. On a value returned
// by Canonical the hash is precomputed and Hash is free.
func (s SweepSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return c.hash, nil
}

// computeHash admits every enumerated run (checking pairwise
// distinctness along the way), folds the labeled cell population into
// the sweep's content address, and returns the admitted runs. It also
// normalizes the snapshot set to the sorted intersection with the run
// addresses it just computed — the normalized set is part of the hash
// (a diffed sweep is a different campaign: it executes, and therefore
// means, something else), but via an omitempty field, so snapshot-free
// sweeps keep their pre-snapshot "sw1" addresses. Called once, by
// Canonical, after the structural axis checks bounded the enumeration.
func (s SweepSpec) computeHash() (string, []string, []SweepRun, error) {
	type axisID struct {
		Name      string   `json:"name"`
		Replicate bool     `json:"replicate"`
		Points    []string `json:"points"`
	}
	type runID struct {
		Coords []string `json:"coords"`
		Hash   string   `json:"hash"`
	}
	id := struct {
		Axes     []axisID    `json:"axes"`
		Runs     []runID     `json:"runs"`
		Triage   *TriageSpec `json:"triage,omitempty"`
		Snapshot []string    `json:"snapshot,omitempty"`
	}{Triage: s.Triage}
	for _, ax := range s.Axes {
		a := axisID{Name: ax.Name, Replicate: ax.Replicate}
		for _, pt := range ax.Points {
			a.Points = append(a.Points, pt.Name)
		}
		id.Axes = append(id.Axes, a)
	}
	runs := s.enumerate()
	seen := make(map[string][]string, len(runs))
	for i, r := range runs {
		a := admit(r.Spec)
		if a.err != nil {
			return "", nil, nil, fmt.Errorf("ltp: sweep cell %v: %w", r.Coords, a.err)
		}
		if s.Triage != nil && a.spec.Backend != BackendCycle && a.spec.Backend != BackendSampled {
			return "", nil, nil, fmt.Errorf(
				"ltp: triage sweep cell %v selects backend %q; triage itself schedules the model pre-pass, so every cell must be a cycle- or sampled-backend cell",
				r.Coords, a.spec.Backend)
		}
		// The pre-pass runs every cell on the model backend, which has
		// no oracle and refuses co-runners — admitting such a cell would
		// guarantee a post-admission phase-1 failure.
		if s.Triage != nil && a.spec.Oracle {
			return "", nil, nil, fmt.Errorf(
				"ltp: triage sweep cell %v requests oracle classification, which the model pre-pass cannot execute",
				r.Coords)
		}
		if s.Triage != nil && len(a.spec.Corunners) > 0 {
			return "", nil, nil, fmt.Errorf(
				"ltp: triage sweep cell %v has co-runners, which the model pre-pass cannot execute",
				r.Coords)
		}
		if prev, dup := seen[a.hash]; dup {
			return "", nil, nil, fmt.Errorf(
				"ltp: sweep cells %v and %v are the same simulation (an axis patch has no effect on that cell)",
				prev, r.Coords)
		}
		seen[a.hash] = r.Coords
		id.Runs = append(id.Runs, runID{Coords: r.Coords, Hash: a.hash})
		runs[i].Canonical, runs[i].Hash = a.spec, a.hash
	}
	// Normalize the snapshot: keep only addresses this sweep enumerates,
	// deduplicated and sorted. A snapshot of foreign or stale hashes
	// diffs to nothing — identical to no snapshot at all — and hashes
	// identically too.
	var snapshot []string
	if len(s.SinceSnapshot) > 0 {
		keep := map[string]bool{}
		for _, h := range s.SinceSnapshot {
			if _, ok := seen[h]; ok && !keep[h] {
				keep[h] = true
				snapshot = append(snapshot, h)
			}
		}
		sort.Strings(snapshot)
	}
	id.Snapshot = snapshot
	hash, err := hashJSON(sweepSpecHashVersion, id)
	if err != nil {
		return "", nil, nil, err
	}
	return hash, snapshot, runs, nil
}

// SweepRun is one enumerated simulation of a sweep's cross-product:
// the resolved (patched) spec, its admission (canonical form and
// content address), and the indices that place its result in the
// SweepResult grid.
type SweepRun struct {
	// Index is the run's enumeration index (row-major, last axis
	// fastest).
	Index int `json:"index"`
	// Spec is the fully patched run, as the axes spelled it.
	Spec RunSpec `json:"spec"`
	// Canonical is Spec in canonical form (Spec.Canonical), the spec the
	// engine executes and the service checks its budgets on.
	Canonical RunSpec `json:"canonical"`
	// Hash is the run's content address (Spec.Hash), the key campaign
	// diffing works over (a store manifest, SinceSnapshot).
	Hash string `json:"hash"`
	// Coords is the run's point name per axis, in axis order.
	Coords []string `json:"coords"`
	// Cell is the index of the run's cell in SweepResult.Cells.
	Cell int `json:"cell"`
	// Replicate is the run's replicate slot within its cell.
	Replicate int `json:"replicate"`
}

// Runs validates the sweep and returns its admitted runs in
// enumeration order, each with its canonical spec and content address.
// The slice is fresh, but the specs and coordinates share memory with
// the sweep and are read-only.
func (s SweepSpec) Runs() ([]SweepRun, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return append([]SweepRun(nil), c.runs...), nil
}

// SweepCell aggregates one cell's replicates.
type SweepCell struct {
	// Coords is the cell's point name per non-replicate axis, in axis
	// order.
	Coords []string `json:"coords"`
	// Backend is the execution backend every replicate of this cell
	// ran on ("cycle", "model") — summaries are never pooled across
	// fidelities.
	Backend string `json:"backend,omitempty"`
	// Replicates is the number of runs aggregated into the summaries.
	Replicates int `json:"replicates"`

	// CPI summarizes the replicates' cycles per instruction.
	CPI stats.Summary `json:"cpi"`
	// IPC summarizes instructions per cycle.
	IPC stats.Summary `json:"ipc"`
	// MLP summarizes the average outstanding DRAM requests.
	MLP stats.Summary `json:"mlp"`
	// AvgLoadLat summarizes the average load latency in cycles.
	AvgLoadLat stats.Summary `json:"avg_load_lat"`
	// Parked is the time-average number of parked instructions (zero
	// summary when no replicate had the LTP attached).
	Parked stats.Summary `json:"parked"`
}

// SweepAxisInfo echoes one axis of a finished sweep.
type SweepAxisInfo struct {
	// Name is the axis name.
	Name string `json:"name"`
	// Points lists the axis's point names, in sweep order.
	Points []string `json:"points"`
	// Replicate marks a statistical (aggregated) axis.
	Replicate bool `json:"replicate,omitempty"`
}

// TriageResult is the detailed phase of a finished triage sweep.
type TriageResult struct {
	// TopK echoes the triage spec.
	TopK int `json:"top_k"`
	// Detailed holds the cycle-accurate aggregates of the TopK cells
	// the model pre-pass selected (ascending model mean CPI), in cell
	// order.
	Detailed []SweepCell `json:"detailed"`
}

// SweepResult is a finished sweep campaign: one cell per non-replicate
// coordinate combination, row-major in axis order (last non-replicate
// axis varies fastest).
type SweepResult struct {
	// Axes echoes the sweep's axes.
	Axes []SweepAxisInfo `json:"axes"`
	// Cells holds the aggregates. For a triage sweep these are the
	// model pre-pass estimates (Backend "model"); the selected cells'
	// cycle-accurate aggregates are in Triage.Detailed.
	Cells []SweepCell `json:"cells"`
	// Triage holds the detailed phase of a triage sweep (nil
	// otherwise).
	Triage *TriageResult `json:"triage,omitempty"`
}

// Cell returns the cell with the given non-replicate coordinates, or
// nil.
func (r *SweepResult) Cell(coords ...string) *SweepCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if len(c.Coords) != len(coords) {
			continue
		}
		match := true
		for k := range coords {
			if c.Coords[k] != coords[k] {
				match = false
				break
			}
		}
		if match {
			return c
		}
	}
	return nil
}

// aggregateSweep folds per-run results (indexed like runs' output)
// into the sweep's cell summaries.
func aggregateSweep(spec SweepSpec, runs []SweepRun, results []RunResult) *SweepResult {
	out := &SweepResult{}
	for _, ax := range spec.Axes {
		info := SweepAxisInfo{Name: ax.Name, Replicate: ax.Replicate}
		for _, pt := range ax.Points {
			info.Points = append(info.Points, pt.Name)
		}
		out.Axes = append(out.Axes, info)
	}
	out.Cells = make([]SweepCell, spec.CellCount())
	// Every cell's coordinates come from the axis structure up front: a
	// snapshot-diffed sweep may execute none of a cell's replicates (or
	// none at all), and downstream consumers index Coords
	// unconditionally.
	fillCellCoords(spec, out.Cells)
	samples := make([][]RunResult, len(out.Cells))
	ltpSeen := make([]bool, len(out.Cells))
	for i, r := range runs {
		samples[r.Cell] = append(samples[r.Cell], results[i])
		if results[i].LTP != nil {
			ltpSeen[r.Cell] = true
		}
		if out.Cells[r.Cell].Backend == "" {
			out.Cells[r.Cell].Backend = specBackendName(r.Spec)
		}
	}
	for ci := range out.Cells {
		cellRuns := samples[ci]
		pull := func(f func(RunResult) float64) stats.Summary {
			vals := make([]float64, len(cellRuns))
			for i, r := range cellRuns {
				vals[i] = f(r)
			}
			return stats.Summarize(vals)
		}
		cell := &out.Cells[ci]
		cell.Replicates = len(cellRuns)
		cell.CPI = pull(func(r RunResult) float64 { return r.CPI })
		cell.IPC = pull(func(r RunResult) float64 { return r.IPC })
		cell.MLP = pull(func(r RunResult) float64 { return r.MLP })
		cell.AvgLoadLat = pull(func(r RunResult) float64 { return r.AvgLoadLatency })
		if ltpSeen[ci] {
			cell.Parked = pull(func(r RunResult) float64 {
				if r.LTP == nil {
					return 0
				}
				return r.LTP.AvgInsts
			})
		}
	}
	return out
}

// fillCellCoords writes each cell's non-replicate coordinates, row-
// major in axis order (last non-replicate axis varies fastest —
// matching SweepRun.Cell's encoding in runs).
func fillCellCoords(spec SweepSpec, cells []SweepCell) {
	var axes []SweepAxis
	for _, ax := range spec.Axes {
		if !ax.Replicate {
			axes = append(axes, ax)
		}
	}
	if len(axes) == 0 {
		return // single-cell sweep: coordinates stay nil, as always
	}
	idx := make([]int, len(axes))
	for ci := range cells {
		coords := make([]string, len(axes))
		for ai := range axes {
			coords[ai] = axes[ai].Points[idx[ai]].Name
		}
		cells[ci].Coords = coords
		for ai := len(axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai].Points) {
				break
			}
			idx[ai] = 0
		}
	}
}
