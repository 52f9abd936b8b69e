package bpred

import "sync"

// Gshare is the baseline direction predictor: a global history register
// XOR-folded into the PC indexes a table of 2-bit saturating counters,
// plus the shared tagged BTB for targets.
type Gshare struct {
	pht     []uint8 // 2-bit counters
	phtMask uint32
	ghr     uint32
	ghrBits uint

	btb btb
	st  Stats
}

// NewGshare builds a gshare predictor with 2^phtBits counters and
// 2^btbBits BTB entries.
func NewGshare(phtBits, btbBits uint) *Gshare {
	return &Gshare{
		pht:     make([]uint8, 1<<phtBits),
		phtMask: uint32(1<<phtBits - 1),
		ghrBits: phtBits,
		btb:     newBTB(btbBits),
	}
}

// Name returns "gshare".
func (p *Gshare) Name() string { return "gshare" }

// Stats returns the statistics counters.
func (p *Gshare) Stats() *Stats { return &p.st }

func (p *Gshare) phtIndex(pc uint64) uint32 {
	return (uint32(pc>>2) ^ p.ghr) & p.phtMask
}

// Lookup predicts the branch at pc and immediately trains with the true
// outcome. It returns whether the prediction (direction and, for taken
// branches, target) was correct.
func (p *Gshare) Lookup(pc uint64, taken bool, target uint64) (correct bool) {
	p.st.Branches++
	idx := p.phtIndex(pc)
	predTaken := p.pht[idx] >= 2

	correct = predTaken == taken
	if !correct {
		p.st.DirMiss++
	}
	if taken {
		if correct && !p.btb.hit(pc, target) {
			// Right direction but unknown/stale target is still a redirect.
			p.st.TargetMiss++
			correct = false
		}
		p.btb.update(pc, target)
	}
	if !correct {
		p.st.Mispredicts++
	}

	// Train the 2-bit counter and history with the true outcome.
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	p.ghr = ((p.ghr << 1) | b2u(taken)) & p.phtMask
	return correct
}

// PredictOnly returns whether the current tables would predict the
// branch correctly, without training or counting statistics.
func (p *Gshare) PredictOnly(pc uint64, taken bool, target uint64) bool {
	predTaken := p.pht[p.phtIndex(pc)] >= 2
	if predTaken != taken {
		return false
	}
	if taken && !p.btb.hit(pc, target) {
		return false
	}
	return true
}

// Clone returns a deep copy of the predictor: PHT, history and BTB are
// duplicated so the copy trains independently. The copy reuses the
// tables of a released predictor when one is pooled.
func (p *Gshare) Clone() Predictor {
	cp, _ := gsharePool.Get().(*Gshare)
	if cp == nil {
		cp = new(Gshare)
	}
	pht, tags, targets := cp.pht, cp.btb.tags, cp.btb.targets
	*cp = *p
	cp.pht = append(pht[:0], p.pht...)
	cp.btb.tags = append(tags[:0], p.btb.tags...)
	cp.btb.targets = append(targets[:0], p.btb.targets...)
	return cp
}

// gsharePool holds released predictors whose tables later clones reuse.
var gsharePool sync.Pool

// ResetStats zeroes the prediction statistics while keeping the trained
// tables.
func (p *Gshare) ResetStats() { p.st.Reset() }
