package core

// LLPredictor is the two-level hit/miss predictor from the Appendix: a
// per-PC history table records the last four hit/miss outcomes; the
// history hashed with the PC indexes a table of 2-bit saturating counters
// that predicts whether the next execution will be long-latency. The paper
// reports it within 2 points of an oracle.
type LLPredictor struct {
	hist     []uint8 // per-PC 4-bit outcome history
	pht      []uint8 // 2-bit counters
	histMask uint64
	phtMask  uint64

	// Statistics.
	Predictions uint64
	PredictedLL uint64
	Correct     uint64
}

// NewLLPredictor builds a predictor with 2^histBits history entries and
// 2^phtBits counters.
func NewLLPredictor(histBits, phtBits uint) *LLPredictor {
	return &LLPredictor{
		hist:     make([]uint8, 1<<histBits),
		pht:      make([]uint8, 1<<phtBits),
		histMask: 1<<histBits - 1,
		phtMask:  1<<phtBits - 1,
	}
}

// DefaultLLPredictor returns the configuration used by the realistic
// design: 4K history entries, 4K counters.
func DefaultLLPredictor() *LLPredictor { return NewLLPredictor(12, 12) }

func (l *LLPredictor) phtIndex(pc uint64) uint64 {
	h := uint64(l.hist[(pc>>2)&l.histMask] & 0xf)
	return ((pc >> 2) ^ (h * 0x9e37)) & l.phtMask
}

// Predict returns whether the instruction at pc is predicted long-latency.
func (l *LLPredictor) Predict(pc uint64) bool {
	l.Predictions++
	ll := l.pht[l.phtIndex(pc)] >= 2
	if ll {
		l.PredictedLL++
	}
	return ll
}

// Train records the actual outcome for pc. Call after the access's latency
// class is known.
func (l *LLPredictor) Train(pc uint64, wasLL bool) {
	idx := l.phtIndex(pc)
	pred := l.pht[idx] >= 2
	if pred == wasLL {
		l.Correct++
	}
	if wasLL {
		if l.pht[idx] < 3 {
			l.pht[idx]++
		}
	} else if l.pht[idx] > 0 {
		l.pht[idx]--
	}
	hi := (pc >> 2) & l.histMask
	l.hist[hi] = (l.hist[hi] << 1) & 0xf
	if wasLL {
		l.hist[hi] |= 1
	}
}

// Accuracy returns the fraction of trained predictions that were correct.
func (l *LLPredictor) Accuracy() float64 {
	if l.Predictions == 0 {
		return 1
	}
	return float64(l.Correct) / float64(l.Predictions)
}

// DRAMMonitor is the timer-based runtime on/off control (§5.2, after Kora
// et al.): every demand access that misses in the L3 restarts a timer set
// to the DRAM latency and enables LTP; when the timer expires — no
// long-latency loads recently — LTP is power-gated off so compute-bound
// phases do not pay parking overheads.
type DRAMMonitor struct {
	timerUntil uint64
	latency    uint64
	forceOn    bool

	// EnabledCycles and TotalCycles give the enabled fraction (Fig. 7).
	EnabledCycles uint64
	TotalCycles   uint64
}

// NewDRAMMonitor builds a monitor with the given DRAM latency in cycles.
// forceOn keeps LTP always enabled (the limit study's setting).
func NewDRAMMonitor(dramLatency uint64, forceOn bool) *DRAMMonitor {
	return &DRAMMonitor{latency: dramLatency, forceOn: forceOn}
}

// NoteDemandMiss restarts the timer on a demand L3 miss at cycle now.
func (m *DRAMMonitor) NoteDemandMiss(now uint64) {
	until := now + m.latency
	if until > m.timerUntil {
		m.timerUntil = until
	}
}

// Enabled reports whether LTP is powered on at cycle now.
func (m *DRAMMonitor) Enabled(now uint64) bool {
	return m.forceOn || now < m.timerUntil
}

// Tick accumulates the enabled-time statistic; call once per cycle.
func (m *DRAMMonitor) Tick(now uint64) {
	m.TotalCycles++
	if m.Enabled(now) {
		m.EnabledCycles++
	}
}

// next returns the first cycle after now at which Enabled flips by
// time alone — the timer expiring — or ^uint64(0) when it cannot.
func (m *DRAMMonitor) next(now uint64) uint64 {
	if m.forceOn || m.timerUntil <= now {
		return ^uint64(0)
	}
	return m.timerUntil
}

// skip accounts for k cycles after now that Tick did not see, all on
// the same side of the timer as cycle now+1.
func (m *DRAMMonitor) skip(now, k uint64) {
	m.TotalCycles += k
	if m.Enabled(now + 1) {
		m.EnabledCycles += k
	}
}

// EnabledFraction returns the fraction of cycles LTP was powered on.
func (m *DRAMMonitor) EnabledFraction() float64 {
	if m.TotalCycles == 0 {
		return 0
	}
	return float64(m.EnabledCycles) / float64(m.TotalCycles)
}
