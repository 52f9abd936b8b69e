package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// Limits bounds what a single request may ask for; everything above is
// rejected with 400 before any simulation starts. The budgets bound the
// canonical spec (RunSpec.Canonical), so an omitted budget counts at
// its default. The zero value of a field means its DefaultLimits entry.
type Limits struct {
	// MaxWarmInsts caps the per-run warm-up budget.
	MaxWarmInsts uint64 `json:"max_warm_insts"`
	// MaxDetailInsts caps the per-run measured budget.
	MaxDetailInsts uint64 `json:"max_detail_insts"`
	// MaxSeeds caps a sweep's replicates per cell.
	MaxSeeds int `json:"max_seeds"`
	// MaxCells caps the cells (non-replicate combinations) per sweep.
	MaxCells int `json:"max_cells"`
	// MaxActiveJobs caps concurrently admitted campaigns (the 429
	// backpressure bound; see DESIGN.md §8).
	MaxActiveJobs int `json:"max_active_jobs"`
	// MaxTenantJobs caps one tenant's concurrently admitted campaigns
	// (tenants are named by the X-LTP-Tenant request header; absent =
	// the "" tenant). Zero means MaxActiveJobs, which never binds first.
	MaxTenantJobs int `json:"max_tenant_jobs"`
	// RunTimeoutSeconds bounds one synchronous /v1/run request's
	// wall-clock; the request's context is cancelled at the deadline
	// and the simulation aborts mid-pipeline (504). Negative disables
	// the timeout.
	RunTimeoutSeconds float64 `json:"run_timeout_seconds"`
}

// DefaultLimits is the laptop-scale default policy.
func DefaultLimits() Limits {
	return Limits{
		MaxWarmInsts:      10_000_000,
		MaxDetailInsts:    10_000_000,
		MaxSeeds:          64,
		MaxCells:          256,
		MaxActiveJobs:     16,
		RunTimeoutSeconds: 300,
	}
}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxWarmInsts == 0 {
		l.MaxWarmInsts = d.MaxWarmInsts
	}
	if l.MaxDetailInsts == 0 {
		l.MaxDetailInsts = d.MaxDetailInsts
	}
	if l.MaxSeeds == 0 {
		l.MaxSeeds = d.MaxSeeds
	}
	if l.MaxCells == 0 {
		l.MaxCells = d.MaxCells
	}
	if l.MaxActiveJobs == 0 {
		l.MaxActiveJobs = d.MaxActiveJobs
	}
	if l.MaxTenantJobs == 0 {
		l.MaxTenantJobs = l.MaxActiveJobs
	}
	if l.RunTimeoutSeconds == 0 {
		l.RunTimeoutSeconds = d.RunTimeoutSeconds
	}
	return l
}

// checkBudgets reports a canonical spec whose warm or measured budget
// is above the limits.
func (l Limits) checkBudgets(canon ltp.RunSpec) error {
	if canon.WarmInsts > l.MaxWarmInsts {
		return fmt.Errorf("warm_insts = %d above the service limit %d", canon.WarmInsts, l.MaxWarmInsts)
	}
	if canon.MaxInsts > l.MaxDetailInsts {
		return fmt.Errorf("max_insts = %d above the service limit %d", canon.MaxInsts, l.MaxDetailInsts)
	}
	return nil
}

// apiError is a validation or policy failure with its HTTP status.
type apiError struct {
	status int
	msg    string
}

// Error returns the message.
func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// HTTPError builds an error that WriteError renders with the given
// status, however deeply it is wrapped.
func HTTPError(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// KnobsRequest is the JSON form of workload.Knobs (absent or zero
// fields fall back to the scenario family's defaults).
type KnobsRequest struct {
	FootprintWords int     `json:"footprint_words,omitempty"` // working set in 8-byte words
	Stride         int     `json:"stride,omitempty"`          // streamed-touch distance in words
	Chains         int     `json:"chains,omitempty"`          // dependence chains / consumer lag
	PayloadOps     int     `json:"payload_ops,omitempty"`     // dependent ALU ops per element
	BranchEntropy  float64 `json:"branch_entropy,omitempty"`  // branch unpredictability in (0, 0.5]
	PhaseLen       int     `json:"phase_len,omitempty"`       // iterations per phase (phased family)
}

// knobs converts to the workload type.
func (k *KnobsRequest) knobs() *workload.Knobs {
	if k == nil {
		return nil
	}
	return &workload.Knobs{
		FootprintWords: k.FootprintWords,
		Stride:         k.Stride,
		Chains:         k.Chains,
		PayloadOps:     k.PayloadOps,
		BranchEntropy:  k.BranchEntropy,
		PhaseLen:       k.PhaseLen,
	}
}

// ConfigRequest selects the core sizes a service client may vary;
// absent fields keep the Table 1 baseline value.
type ConfigRequest struct {
	IQSize  int `json:"iq_size,omitempty"`  // instruction queue entries
	ROBSize int `json:"rob_size,omitempty"` // reorder buffer entries
	LQSize  int `json:"lq_size,omitempty"`  // load queue entries
	SQSize  int `json:"sq_size,omitempty"`  // store queue entries
	IntRegs int `json:"int_regs,omitempty"` // available integer rename registers
	FPRegs  int `json:"fp_regs,omitempty"`  // available FP rename registers
}

// pipelineConfig applies the overrides to the Table 1 baseline.
func (c *ConfigRequest) pipelineConfig() *pipeline.Config {
	if c == nil {
		return nil
	}
	cfg := pipeline.DefaultConfig()
	for _, f := range []struct{ dst, v *int }{
		{&cfg.IQSize, &c.IQSize}, {&cfg.ROBSize, &c.ROBSize},
		{&cfg.LQSize, &c.LQSize}, {&cfg.SQSize, &c.SQSize},
		{&cfg.IntRegs, &c.IntRegs}, {&cfg.FPRegs, &c.FPRegs},
	} {
		if *f.v != 0 {
			*f.dst = *f.v
		}
	}
	return &cfg
}

// LTPRequest configures the parking unit. Pointer fields distinguish
// "absent = paper default" from "0 = unlimited".
type LTPRequest struct {
	// Mode is "NU" (default), "NR" or "NR+NU".
	Mode string `json:"mode,omitempty"`
	// Ident is the identification policy: "paper" (default, UIT +
	// LL predictor) or "crit" (ChampSim-style criticality tables).
	Ident      string `json:"ident,omitempty"`
	Entries    *int   `json:"entries,omitempty"`     // LTP capacity (0 = unlimited)
	Ports      *int   `json:"ports,omitempty"`       // enqueue/dequeue bandwidth (0 = unlimited)
	UITEntries *int   `json:"uit_entries,omitempty"` // Urgent Instruction Table entries (0 = unlimited)
	Tickets    *int   `json:"tickets,omitempty"`     // NR long-latency tickets, [0, 128]
}

// ltpConfig applies the overrides to the paper's realistic design.
func (l *LTPRequest) ltpConfig() (*core.Config, error) {
	if l == nil {
		return nil, nil
	}
	cfg := core.DefaultConfig()
	mode, ok := core.ParseMode(l.Mode)
	if !ok {
		return nil, badRequest("ltp.mode %q unknown (want NU, NR or NR+NU)", l.Mode)
	}
	cfg.Mode = mode
	ident, ok := core.ParseIdent(l.Ident)
	if !ok {
		return nil, badRequest("ltp.ident %q unknown (want paper or crit)", l.Ident)
	}
	cfg.Ident = ident
	if l.Entries != nil {
		cfg.Entries = *l.Entries
	}
	if l.Ports != nil {
		cfg.Ports = *l.Ports
	}
	if l.UITEntries != nil {
		cfg.UITEntries = *l.UITEntries
	}
	if l.Tickets != nil {
		cfg.Tickets = *l.Tickets
	}
	return &cfg, nil
}

// CorunnerRequest attaches one co-running workload stream (see
// ltp.Corunner): its traffic contends with the primary core for the
// shared cache levels and DRAM.
type CorunnerRequest struct {
	// Scenario names the family generating the stream (required).
	Scenario string `json:"scenario"`
	// Knobs overrides the family defaults.
	Knobs *KnobsRequest `json:"knobs,omitempty"`
	// Seed varies the family's data layouts.
	Seed int64 `json:"seed,omitempty"`
	// Intensity is the replay rate in accesses per 1024 cycles
	// (0 = the default, 256; at most 4096).
	Intensity int `json:"intensity,omitempty"`
	// Accesses is the captured pattern length (0 = the default, 65536;
	// at most 1048576).
	Accesses int `json:"accesses,omitempty"`
}

// corunnersFromRequest converts a co-runner list.
func corunnersFromRequest(reqs []CorunnerRequest) []ltp.Corunner {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]ltp.Corunner, len(reqs))
	for i, c := range reqs {
		out[i] = ltp.Corunner{
			Scenario:  c.Scenario,
			Knobs:     c.Knobs.knobs(),
			Seed:      c.Seed,
			Intensity: c.Intensity,
			Accesses:  c.Accesses,
		}
	}
	return out
}

// RunRequest is the POST /v1/run body: one simulation. Exactly one of
// workload or scenario must be set.
type RunRequest struct {
	Workload  string         `json:"workload,omitempty"`   // fixed kernel name (see /v1/workloads)
	Scenario  string         `json:"scenario,omitempty"`   // scenario family name
	Knobs     *KnobsRequest  `json:"knobs,omitempty"`      // scenario knob overrides
	Seed      int64          `json:"seed,omitempty"`       // scenario seed (layouts, constants)
	Scale     float64        `json:"scale,omitempty"`      // working-set scale in (0, 1]; 0 = 1.0
	WarmInsts uint64         `json:"warm_insts,omitempty"` // warm-up instructions
	WarmMode  string         `json:"warm_mode,omitempty"`  // "fast" (default) or "detailed"
	MaxInsts  uint64         `json:"max_insts,omitempty"`  // measured instructions; 0 = 1 M
	Config    *ConfigRequest `json:"config,omitempty"`     // core size overrides
	UseLTP    bool           `json:"use_ltp,omitempty"`    // attach the parking unit
	LTP       *LTPRequest    `json:"ltp,omitempty"`        // parking unit overrides
	Backend   string         `json:"backend,omitempty"`    // execution backend: "cycle" (default), "sampled" or "model"
	Intervals int            `json:"intervals,omitempty"`  // sampled backend's interval count K (0 = default)

	// BranchPred selects the branch predictor ("gshare", "tage"; see
	// /v1/workloads for the registry).
	BranchPred string `json:"branch_pred,omitempty"`
	// Prefetcher selects the L2 prefetch engine ("none", "nextline",
	// "stride", "stream").
	Prefetcher string `json:"prefetcher,omitempty"`
	// Corunners attaches co-running workload streams contending for
	// the shared cache levels and DRAM.
	Corunners []CorunnerRequest `json:"corunners,omitempty"`
}

// baseSpec applies the request's own strictness (one µop source, no
// field the engine would ignore, known warm-mode and LTP names, at most
// MaxSampledIntervals) and converts it to an ltp.RunSpec. Whether the
// spec may run is RunSpec.Canonical's to decide; the sweep endpoint
// uses the result as a base whose scenario an axis may supply.
func (r *RunRequest) baseSpec() (ltp.RunSpec, error) {
	if r.Workload != "" && r.Scenario != "" {
		return ltp.RunSpec{}, badRequest("request names both a workload and a scenario; pick one")
	}
	// Reject configuration the engine would silently ignore — a request
	// that cannot mean what it says must 400, not burn compute on the
	// wrong configuration.
	if !r.UseLTP && r.LTP != nil {
		return ltp.RunSpec{}, badRequest("ltp overrides given without use_ltp; set use_ltp or drop them")
	}
	if r.Workload != "" && (r.Knobs != nil || r.Seed != 0) {
		return ltp.RunSpec{}, badRequest("knobs/seed apply to scenarios only; fixed kernel %q ignores them", r.Workload)
	}
	wm, err := ltp.ParseWarmMode(r.WarmMode)
	if err != nil {
		return ltp.RunSpec{}, badRequest("%v", err)
	}
	lcfg, err := r.LTP.ltpConfig()
	if err != nil {
		return ltp.RunSpec{}, err
	}
	if r.Intervals < 0 || r.Intervals > ltp.MaxSampledIntervals {
		return ltp.RunSpec{}, badRequest("intervals = %d out of range [0, %d]", r.Intervals, ltp.MaxSampledIntervals)
	}
	return ltp.RunSpec{
		Workload:   r.Workload,
		Scenario:   r.Scenario,
		Knobs:      r.Knobs.knobs(),
		Seed:       r.Seed,
		Scale:      r.Scale,
		WarmInsts:  r.WarmInsts,
		WarmMode:   wm,
		MaxInsts:   r.MaxInsts,
		Pipeline:   r.Config.pipelineConfig(),
		UseLTP:     r.UseLTP,
		LTP:        lcfg,
		Backend:    r.Backend,
		Intervals:  r.Intervals,
		BranchPred: r.BranchPred,
		Prefetcher: r.Prefetcher,
		Corunners:  corunnersFromRequest(r.Corunners),
	}, nil
}

// runSpec converts the request to an ltp.RunSpec that canonicalizes
// within the limits' budgets.
func (r *RunRequest) runSpec(lim Limits) (ltp.RunSpec, error) {
	spec, err := r.baseSpec()
	if err != nil {
		return ltp.RunSpec{}, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return ltp.RunSpec{}, badRequest("%v", err)
	}
	if err := lim.checkBudgets(canon); err != nil {
		return ltp.RunSpec{}, badRequest("%v", err)
	}
	return spec, nil
}

// Spec validates the request against the limits and converts it to a
// canonicalizable ltp.RunSpec — the exported form of the conversion
// the /v1/run handler performs.
func (r *RunRequest) Spec(lim Limits) (ltp.RunSpec, error) { return r.runSpec(lim) }

// PatchRequest is the JSON form of ltp.RunPatch: one axis point's
// declarative overrides. Absent fields leave the base (or earlier
// axes' values) untouched.
type PatchRequest struct {
	Workload  *string       `json:"workload,omitempty"`   // fixed kernel name
	Scenario  *string       `json:"scenario,omitempty"`   // scenario family name
	Knobs     *KnobsRequest `json:"knobs,omitempty"`      // scenario knob overrides (replaces)
	Seed      *int64        `json:"seed,omitempty"`       // scenario seed
	Scale     *float64      `json:"scale,omitempty"`      // working-set scale in (0, 1]; 0 = 1.0
	WarmInsts *uint64       `json:"warm_insts,omitempty"` // warm-up instructions
	WarmMode  *string       `json:"warm_mode,omitempty"`  // "fast" or "detailed"
	MaxInsts  *uint64       `json:"max_insts,omitempty"`  // measured instructions
	IQSize    *int          `json:"iq_size,omitempty"`    // instruction queue entries
	ROBSize   *int          `json:"rob_size,omitempty"`   // reorder buffer entries
	LQSize    *int          `json:"lq_size,omitempty"`    // load queue entries
	SQSize    *int          `json:"sq_size,omitempty"`    // store queue entries
	IntRegs   *int          `json:"int_regs,omitempty"`   // integer rename registers
	FPRegs    *int          `json:"fp_regs,omitempty"`    // FP rename registers
	UseLTP    *bool         `json:"use_ltp,omitempty"`    // attach/detach the parking unit
	LTP       *LTPRequest   `json:"ltp,omitempty"`        // parking unit configuration (replaces)
	Backend   *string       `json:"backend,omitempty"`    // execution backend ("cycle", "sampled", "model") — the fidelity axis
	Intervals *int          `json:"intervals,omitempty"`  // sampled backend's interval count K

	// BranchPred selects the branch predictor ("gshare", "tage").
	BranchPred *string `json:"branch_pred,omitempty"`
	// Prefetcher selects the L2 prefetch engine ("none", "nextline",
	// "stride", "stream").
	Prefetcher *string `json:"prefetcher,omitempty"`
	// Ident selects the LTP identification policy ("paper", "crit")
	// on top of whatever LTP configuration the cell has.
	Ident *string `json:"ident,omitempty"`
	// Corunners replaces the co-runner list (empty = detach all).
	Corunners *[]CorunnerRequest `json:"corunners,omitempty"`
}

// patch converts the overrides to an ltp.RunPatch, parsing the
// warm-mode and LTP names and bounding intervals as baseSpec does.
func (p *PatchRequest) patch(where string) (ltp.RunPatch, error) {
	out := ltp.RunPatch{
		Workload:   p.Workload,
		Scenario:   p.Scenario,
		Knobs:      p.Knobs.knobs(),
		Seed:       p.Seed,
		Scale:      p.Scale,
		WarmInsts:  p.WarmInsts,
		MaxInsts:   p.MaxInsts,
		IQSize:     p.IQSize,
		ROBSize:    p.ROBSize,
		LQSize:     p.LQSize,
		SQSize:     p.SQSize,
		IntRegs:    p.IntRegs,
		FPRegs:     p.FPRegs,
		UseLTP:     p.UseLTP,
		Backend:    p.Backend,
		BranchPred: p.BranchPred,
		Prefetcher: p.Prefetcher,
		Ident:      p.Ident,
	}
	if p.WarmMode != nil {
		wm, err := ltp.ParseWarmMode(*p.WarmMode)
		if err != nil {
			return ltp.RunPatch{}, badRequest("%s: %v", where, err)
		}
		out.WarmMode = &wm
	}
	if p.LTP != nil {
		lcfg, err := p.LTP.ltpConfig()
		if err != nil {
			return ltp.RunPatch{}, err
		}
		out.LTP = lcfg
	}
	if p.Intervals != nil {
		if *p.Intervals < 0 || *p.Intervals > ltp.MaxSampledIntervals {
			return ltp.RunPatch{}, badRequest("%s: intervals = %d out of range [0, %d]", where, *p.Intervals, ltp.MaxSampledIntervals)
		}
		out.Intervals = p.Intervals
	}
	if p.Corunners != nil {
		cors := corunnersFromRequest(*p.Corunners)
		if cors == nil {
			cors = []ltp.Corunner{}
		}
		out.Corunners = &cors
	}
	return out, nil
}

// SweepPointRequest is one value along a sweep axis.
type SweepPointRequest struct {
	// Name labels the point in cell coordinates (required, unique
	// within the axis).
	Name string `json:"name"`
	// Patch is the override set the point applies.
	Patch PatchRequest `json:"patch"`
}

// SweepAxisRequest is one dimension of a sweep request.
type SweepAxisRequest struct {
	// Name labels the axis (required, unique within the sweep).
	Name string `json:"name"`
	// Replicate marks a statistical axis whose points aggregate into
	// each cell's mean ± CI instead of forming cells.
	Replicate bool `json:"replicate,omitempty"`
	// Points are the axis values (at least one).
	Points []SweepPointRequest `json:"points"`
}

// TriageRequest turns a sweep into a two-phase fidelity triage: a
// model-backend pre-pass over every cell, then a cycle-accurate re-run
// of the top_k best (lowest model mean CPI) cells.
type TriageRequest struct {
	// TopK is how many cells the detailed phase re-runs (1 ≤ top_k ≤
	// cell count).
	TopK int `json:"top_k"`
}

// SweepRequest is the POST /v1/sweep body: a base run request plus the
// axes whose cross-product forms the campaign.
type SweepRequest struct {
	// Base is the template every cell starts from; it may omit the
	// workload/scenario when an axis supplies it.
	Base RunRequest `json:"base"`
	// Axes are the sweep dimensions, applied in order.
	Axes []SweepAxisRequest `json:"axes"`
	// Triage, when present, runs the sweep as a fidelity triage.
	Triage *TriageRequest `json:"triage,omitempty"`
	// SinceSnapshot makes the campaign incremental: runs whose content
	// address appears in the list (a store snapshot manifest's keys)
	// are not executed — they stream as outcome "cached" cells — so
	// only the work new since the snapshot simulates. Hashes the sweep
	// does not enumerate are ignored. Incompatible with triage.
	SinceSnapshot []string `json:"since_snapshot,omitempty"`
}

// sweepSpec validates against the limits and converts to an
// ltp.SweepSpec.
func (r *SweepRequest) sweepSpec(lim Limits) (ltp.SweepSpec, error) {
	base, err := r.Base.baseSpec()
	if err != nil {
		return ltp.SweepSpec{}, err
	}
	if len(r.Axes) == 0 {
		return ltp.SweepSpec{}, badRequest("sweep has no axes (use /v1/run for a single simulation)")
	}
	// Bound the cross-product from the request's own point counts
	// BEFORE anything canonicalizes or enumerates it: a handful of
	// wide axes multiply into astronomically many runs, and the limit
	// check must come before the allocation it is there to prevent.
	cells, reps := 1, 1
	for _, ax := range r.Axes {
		n := len(ax.Points)
		if n == 0 {
			continue // Canonical reports the empty axis precisely
		}
		if ax.Replicate {
			reps = boundedMul(reps, n)
		} else {
			cells = boundedMul(cells, n)
		}
	}
	if cells > lim.MaxCells {
		return ltp.SweepSpec{}, badRequest("sweep has %d cells, above the service limit %d", cells, lim.MaxCells)
	}
	if reps > lim.MaxSeeds {
		return ltp.SweepSpec{}, badRequest("sweep has %d replicates per cell, above the service limit %d", reps, lim.MaxSeeds)
	}
	spec := ltp.SweepSpec{Base: base, SinceSnapshot: r.SinceSnapshot}
	if r.Triage != nil {
		spec.Triage = &ltp.TriageSpec{TopK: r.Triage.TopK}
	}
	for ai, ax := range r.Axes {
		axis := ltp.SweepAxis{Name: ax.Name, Replicate: ax.Replicate}
		for pi, pt := range ax.Points {
			where := fmt.Sprintf("axes[%d] %q point[%d] %q", ai, ax.Name, pi, pt.Name)
			patch, err := pt.Patch.patch(where)
			if err != nil {
				return ltp.SweepSpec{}, err
			}
			axis.Points = append(axis.Points, ltp.SweepPoint{Name: pt.Name, Patch: patch})
		}
		spec.Axes = append(spec.Axes, axis)
	}
	// Canonical validates axis/point naming, the triage settings and
	// that every enumerated cell is canonicalizable; surface its
	// complaints as 400s.
	canon, err := spec.Canonical()
	if err != nil {
		return ltp.SweepSpec{}, badRequest("%v", err)
	}
	runs, _ := canon.Runs() // a canonical sweep enumerates without error
	for _, run := range runs {
		if err := lim.checkBudgets(run.Canonical); err != nil {
			return ltp.SweepSpec{}, badRequest("sweep cell %v: %v", run.Coords, err)
		}
	}
	return canon, nil
}

// Spec validates the request against the limits and converts it to a
// canonical ltp.SweepSpec — the exported form of the conversion the
// /v1/sweep handler performs.
func (r *SweepRequest) Spec(lim Limits) (ltp.SweepSpec, error) { return r.sweepSpec(lim) }

// DecodeJSON strictly decodes one JSON object from the request body
// (unknown fields and trailing garbage are errors carrying a 400
// status).
func DecodeJSON(r *http.Request, dst any) error { return decodeJSON(r, dst) }

// boundedMul multiplies point counts without overflowing (the precise
// value above any service limit does not matter).
func boundedMul(a, b int) int {
	const cap = 1 << 30
	if a > cap/b {
		return cap
	}
	return a * b
}

// decodeJSON strictly decodes one JSON object from the body: unknown
// fields and trailing garbage are 400s.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	// Only the body's end may follow (More misses a stray '}' or ']').
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("invalid request body: trailing data after the JSON object")
	}
	return nil
}
