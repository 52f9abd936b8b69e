// Package bpred implements the branch direction predictors and BTB used
// by the simulated front-end. Two direction predictors are registered:
//
//   - "gshare": global-history-XOR-PC indexed 2-bit counters (the
//     original baseline predictor), plus a direct-mapped tagged BTB.
//   - "tage": a TAGE predictor — bimodal base table plus tagged tables
//     indexed by geometrically increasing global-history lengths, with
//     3-bit signed counters, usefulness counters, use-alt-on-new-alloc
//     steering and periodic usefulness aging.
//
// The simulator is trace-driven, so wrong-path instructions are not
// executed; a misprediction instead stalls fetch until the branch
// resolves in the backend, which reproduces the pipeline-refill bubble
// (see DESIGN.md §5). Tables and histories are updated with the true
// outcome at prediction time, modelling an ideally-repaired history.
package bpred

import (
	"fmt"
	"sort"
)

// Predictor is the front-end branch predictor contract: direction
// prediction plus target checking against a BTB. Implementations must be
// deterministic and must support Clone for the sampled fidelity tier's
// checkpointed warm state.
type Predictor interface {
	// Name returns the registry name of the implementation.
	Name() string
	// Lookup predicts the branch at pc and immediately trains with the
	// true outcome. It returns whether the prediction (direction and,
	// for taken branches, target) was correct.
	Lookup(pc uint64, taken bool, target uint64) bool
	// PredictOnly returns whether the current tables would predict the
	// branch correctly, without training or counting statistics. Used
	// for replayed fetches after a squash so the predictor is not
	// trained twice on one dynamic branch.
	PredictOnly(pc uint64, taken bool, target uint64) bool
	// Clone returns a deep copy that trains independently of the
	// original — the sampled tier clones a functionally-warmed
	// predictor at every interval boundary.
	Clone() Predictor
	// Stats returns the predictor's statistics counters (mutable).
	Stats() *Stats
	// ResetStats zeroes the statistics while keeping the trained
	// tables — the warm-up/measured-region boundary of a simulation.
	ResetStats()
}

// Stats holds the prediction statistics every implementation reports.
type Stats struct {
	// Branches counts predicted (trained) dynamic branches.
	Branches uint64
	// DirMiss counts direction mispredictions.
	DirMiss uint64
	// TargetMiss counts direction-correct taken branches whose BTB
	// target was unknown or stale (still a front-end redirect).
	TargetMiss uint64
	// Mispredicts counts total mispredictions (direction or target).
	Mispredicts uint64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// Accuracy returns the fraction of correctly predicted branches.
func (s *Stats) Accuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Branches)
}

// DefaultName is the predictor the baseline core uses when a spec
// leaves the axis unset.
const DefaultName = "gshare"

// builders maps registry names to constructors for the baseline-sized
// configuration of each predictor.
var builders = map[string]func() Predictor{
	"gshare": func() Predictor { return NewGshare(16, 12) },
	"tage":   func() Predictor { return NewTAGE() },
}

// New builds the named predictor at its baseline configuration. The
// empty name means DefaultName.
func New(name string) (Predictor, error) {
	name, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return builders[name](), nil
}

// Lookup validates a predictor name without building the predictor and
// returns its registry name (DefaultName for the empty name). The error
// is New's.
func Lookup(name string) (string, error) {
	if name == "" {
		name = DefaultName
	}
	if _, ok := builders[name]; !ok {
		return "", fmt.Errorf("bpred: unknown branch predictor %q (have %v)", name, Names())
	}
	return name, nil
}

// Default returns the baseline predictor (16-bit gshare, 4K-entry BTB).
func Default() Predictor { return NewGshare(16, 12) }

// Names returns the registered predictor names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Release hands a predictor that will not be used again back for reuse:
// a later Clone of the same implementation takes over its tables.
// Implementations without pooled tables ignore it.
func Release(p Predictor) {
	if g, ok := p.(*Gshare); ok {
		gsharePool.Put(g)
	}
}

// btb is a direct-mapped, fully-tagged branch target buffer shared by
// the direction predictors: direction-correct taken branches still
// redirect when the target is unknown or stale.
type btb struct {
	tags    []uint64
	targets []uint64
	mask    uint64
}

func newBTB(bits uint) btb {
	return btb{
		tags:    make([]uint64, 1<<bits),
		targets: make([]uint64, 1<<bits),
		mask:    uint64(1<<bits - 1),
	}
}

// hit reports whether the BTB holds pc with exactly this target.
func (b *btb) hit(pc, target uint64) bool {
	i := (pc >> 2) & b.mask
	return b.tags[i] == pc && b.targets[i] == target
}

// update installs the target for pc.
func (b *btb) update(pc, target uint64) {
	i := (pc >> 2) & b.mask
	b.tags[i] = pc
	b.targets[i] = target
}

// clone deep-copies the BTB.
func (b *btb) clone() btb {
	return btb{
		tags:    append([]uint64(nil), b.tags...),
		targets: append([]uint64(nil), b.targets...),
		mask:    b.mask,
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
