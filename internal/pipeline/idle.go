package pipeline

// Idle-cycle skipping. A memory-bound core spends most of its cycles
// waiting on DRAM with a full window: no event fires and nothing
// commits, issues, renames or fetches. Run detects such a cycle and
// jumps to the next cycle at which anything can change.
//
// A cycle is idle when it changed no state: no event was applied or
// scheduled, nothing committed, issued, dispatched, parked or unparked,
// no store drained, the front end stayed put, resourceStall is what it
// was at the cycle's start, and the IQ ready list is empty. The only
// things such a cycle does are per-cycle statistics. Every later cycle
// runs the same code on the same state, so it repeats them — until a
// time-gated condition flips. idleUntil returns the earliest such
// cycle W; cycles now+1 … W-1 are then accounted for in one step,
// each statistic advancing as that many repeats of the idle cycle
// would advance it. The accounting is exact: every sample is an
// integer and every sum stays below 2^53 (see stats.Accumulator.AddN).

// activity is a fingerprint of the state a cycle can change, apart
// from per-cycle statistics: if it is equal before and after a cycle
// and the ready list is empty, the cycle was idle. progress sums
// monotone counters, so it is unchanged only if each of them is.
type activity struct {
	progress        uint64
	fetchStallUntil uint64
	pending         Handle
	resourceStall   bool
}

func (p *Pipeline) activity() activity {
	return activity{
		progress: p.events.ops + p.drained + p.committed + p.Dispatched +
			p.unparked + p.Fetched,
		fetchStallUntil: p.fetchStallUntil,
		pending:         p.pending,
		resourceStall:   p.resourceStall,
	}
}

// idleUntil returns W, the earliest cycle after the idle cycle p.now at
// which a time-gated condition can flip, so that cycle W must be
// simulated. A bound at or before now has already flipped and stays
// so; it does not limit W.
func (p *Pipeline) idleUntil(maxCycles uint64) uint64 {
	now := p.now
	w := never
	bound := func(t uint64) {
		if t > now && t < w {
			w = t
		}
	}
	if p.events.n > 0 {
		bound(p.events.ev[0].at)
	}
	if len(p.drainAt) > 0 {
		bound(p.drainAt[0])
	}
	if p.mispredSeq == never {
		bound(p.fetchStallUntil)
	}
	if p.pending == 0 && p.decodeHead < len(p.decodeQ) {
		bound(p.decodeQ[p.decodeHead].readyAt)
	}
	if h := p.rob.Head(); h != nil {
		switch {
		case h.Parked:
			bound(p.lastCommitCycle + 129) // the pressure valve (renameStage)
		case h.IsStore():
			bound(h.AddrKnownAt)
			if h.U.Src2.Valid() && h.SrcProd[1] == 0 && h.SrcPreg[1] != NoPReg {
				bound(p.classRF(h.U.Src2).ReadyAt(h.SrcPreg[1]))
			}
		default:
			bound(h.DoneAt)
		}
		if p.cfg.WatchdogCycles > 0 {
			bound(p.lastCommitCycle + p.cfg.WatchdogCycles + 1)
		}
	}
	// Run polls the cancel channel at the top of its loop when now is a
	// multiple of cancelPollCycles; the skip must stop on that cycle.
	bound((now/cancelPollCycles+1)*cancelPollCycles + 1)
	if maxCycles > 0 {
		bound(maxCycles + 1)
	}
	bound(p.Hier.NextDemandEnd(now)) // the MLP sample changes there
	bound(p.parker.NextChange(now))
	return w
}

// skipIdle accounts for the idle cycles after the idle cycle p.now, up
// to the cycle before idleUntil's bound, and reports whether there
// were any. Each of them repeats the idle cycle's statistics: the
// occupancy samples, the rename stall reasons it charged, and the
// Parker's own (SkipCycles).
func (p *Pipeline) skipIdle(maxCycles uint64) bool {
	w := p.idleUntil(maxCycles)
	if w <= p.now+1 {
		return false
	}
	k := w - 1 - p.now
	p.OccIQ.AddN(float64(p.iq.Len()), k)
	p.OccROB.AddN(float64(p.rob.Len()), k)
	p.OccLQ.AddN(float64(p.lq.Len()), k)
	p.OccSQ.AddN(float64(p.sq.Len()), k)
	p.OccIntRF.AddN(float64(p.intRF.InUse()), k)
	p.OccFPRF.AddN(float64(p.fpRF.InUse()), k)
	p.OccOutstanding.AddN(float64(p.Hier.OutstandingDemand(p.now)), k)
	for r := range p.renameStallReasons {
		if p.stallMask&(1<<r) != 0 {
			p.renameStallReasons[r] += k
		}
	}
	p.parker.SkipCycles(p.now, k)
	p.now += k
	p.skipped += k
	return true
}

// SkippedCycles returns how many of the cycles since the last ResetStats
// Run accounted for without simulating them.
func (p *Pipeline) SkippedCycles() uint64 { return p.skipped }
