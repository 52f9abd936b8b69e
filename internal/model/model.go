package model

import (
	"context"
	"math"

	"ltp/internal/bpred"
	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/sim"
)

func init() { sim.Register(Backend{Cal: DefaultCalibration()}) }

// Backend is the interval-style analytical execution backend.
type Backend struct {
	// Cal supplies the fitted coefficients (zero fields fall back to
	// DefaultCalibration).
	Cal Calibration
}

// Name returns "model".
func (Backend) Name() string { return "model" }

// Fidelity returns FidelityEstimate.
func (Backend) Fidelity() sim.Fidelity { return sim.FidelityEstimate }

// About returns the backend's one-line description.
func (Backend) About() string {
	return "interval-style analytical model (fast first-order CPI estimate for ranking and triage)"
}

// cancelChunk bounds how many µops the model executes between context
// checks.
const cancelChunk = 1 << 16

// Run estimates the run analytically: the shared warm checkpoint
// trains the caches, branch predictor and LTP classification tables;
// the measured region is scored through the dataflow timeline. The
// estimate is deterministic in the spec. A run is a batch of one.
func (b Backend) Run(ctx context.Context, spec sim.Spec) (sim.Stats, error) {
	r := b.RunBatch(ctx, []sim.Spec{spec})[0]
	return r.Stats, r.Err
}

// ring is a fixed-size release-time window: peek returns the release
// time recorded len(buf) pushes ago (0 until the window fills), which
// is the earliest time a new entry can allocate when the structure is
// holding that many in-flight entries.
type ring struct {
	buf []float64
	i   int
}

// ringLen clamps a configured window size to the model's finite bound.
func ringLen(n int) int {
	if n <= 0 || n > pipeline.Inf {
		return pipeline.Inf
	}
	return n
}

func (r *ring) init(n int) { r.buf = make([]float64, ringLen(n)) }

func (r *ring) peek() float64 { return r.buf[r.i] }

func (r *ring) push(v float64) {
	r.buf[r.i] = v
	r.i++
	if r.i == len(r.buf) {
		r.i = 0
	}
}

// timeHeap is a min-heap of release times: a structure whose entries
// leave out of order (the IQ, the MSHRs, the LTP) tracks its exact
// occupancy with one — entries with release times in the past are
// popped lazily, and admit answers "when is there room for one more".
type timeHeap []float64

// newTimeHeap returns an empty heap with room for capacity entries plus
// one slack slot, so admit-bounded pushes never reallocate.
func newTimeHeap(capacity int) timeHeap { return make(timeHeap, 0, max(capacity, 0)+1) }

func (h *timeHeap) push(v float64) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

// popUntil removes every entry whose release time has passed.
func (h *timeHeap) popUntil(now float64) {
	for len(*h) > 0 && (*h)[0] <= now {
		last := len(*h) - 1
		(*h)[0] = (*h)[last]
		*h = (*h)[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(*h) && (*h)[l] < (*h)[best] {
				best = l
			}
			if r < len(*h) && (*h)[r] < (*h)[best] {
				best = r
			}
			if best == i {
				break
			}
			(*h)[i], (*h)[best] = (*h)[best], (*h)[i]
			i = best
		}
	}
}

// admit returns the earliest time ≥ t at which the structure (bounded
// by capacity) has a free entry, draining released entries as the
// clock advances.
func (h *timeHeap) admit(t float64, capacity int) float64 {
	h.popUntil(t)
	for len(*h) >= capacity {
		t = (*h)[0]
		h.popUntil(t)
	}
	return t
}

// ltpModel is the parking side-state (nil when no LTP is attached).
type ltpModel struct {
	parksNU  bool
	parksNR  bool
	early    float64 // NR early-wakeup lead (TagEarlyLead)
	capacity int

	occupied timeHeap

	parkedTotal   uint64
	forced        uint64
	sleepSum      float64
	sleepRegs     float64
	sleepLoads    float64
	sleepStores   float64
	classUrgent   uint64
	classNonReady uint64
}

// machine is the model's scoring state for one run.
type machine struct {
	hier *mem.Hierarchy
	bp   bpred.Predictor
	// unit is the lane's own LTP unit, warmed by the shared checkpoint
	// (nil when the lane does not park). Its identification tables are
	// real finite structures (the UIT, or the criticality table under
	// IdentCrit), not an unbounded oracle set: capacity pressure and the
	// resulting misclassification are part of the mechanism the model
	// estimates (the hashjoin family's LTP loss comes from exactly
	// that).
	unit *core.LTP
	cal  Calibration
	cfg  pipeline.Config

	// Dataflow timeline.
	regReady   [isa.NumArchRegs]float64
	storeReady map[uint64]float64
	lastDisp   float64
	lastRetire float64
	fetchFloor float64

	// Per-class functional-unit bandwidth: pipelined classes count
	// issues per cycle bucket (K units accept K µops per cycle, in any
	// order — out-of-order µops may claim earlier free slots);
	// unpipelined units (divides, square roots) serialize on a
	// next-free clock. Buckets live in fixed epoch-stamped arrays:
	// issue times stay within a bounded horizon of the dispatch clock,
	// so slots recycle without any pruning pass. dramActiveUntil
	// models the LTP monitor's DRAM timer.
	fuBucketCyc     [isa.NumFUKinds][]int64
	fuBucketCnt     [isa.NumFUKinds][]uint16
	fuCount         [isa.NumFUKinds]int
	fuFree          [isa.NumFUKinds]float64
	dramActiveUntil float64

	// Finite-window constraints. Structures drained in program order
	// (ROB, rename registers, LQ/SQ — release times are monotone) use
	// release-time rings; structures drained out of order (IQ, MSHRs)
	// use exact occupancy heaps.
	robRing ring
	intRing ring
	fpRing  ring
	lqRing  ring
	sqRing  ring
	iqHeap  timeHeap
	iqCap   int

	// ltp is the parking side-state (nil exactly when unit is).
	ltp *ltpModel

	// Accumulators for the Stats snapshot (memory counters live in
	// the hierarchy).
	n          uint64
	stores     uint64
	dramLatSum float64
	rfReads    uint64
	rfWrites   uint64
	robOcc     float64
	iqOcc      float64
	lqOcc      float64
	sqOcc      float64
	intOcc     float64
	fpOcc      float64
}

// newMachine assembles a scoring machine around a lane's warmed state,
// which it takes over.
func newMachine(cal Calibration, spec sim.Spec, w *sim.Warmed) *machine {
	def := DefaultCalibration()
	if cal.DispatchWidth <= 0 {
		cal.DispatchWidth = def.DispatchWidth
	}
	if cal.BranchBubble <= 0 {
		cal.BranchBubble = def.BranchBubble
	}
	if cal.ParkThreshold <= 0 {
		cal.ParkThreshold = def.ParkThreshold
	}
	if cal.WakeDelay <= 0 {
		cal.WakeDelay = def.WakeDelay
	}
	if cal.LoadExtra <= 0 {
		cal.LoadExtra = def.LoadExtra
	}
	if cal.StoreDrain <= 0 {
		cal.StoreDrain = def.StoreDrain
	}
	if cal.CPIScale <= 0 {
		cal.CPIScale = def.CPIScale
	}
	cfg := spec.Pipeline
	m := &machine{
		hier:       w.Hierarchy(),
		bp:         w.Predictor(),
		unit:       w.Unit(),
		cal:        cal,
		cfg:        cfg,
		storeReady: make(map[uint64]float64),
		iqCap:      cfg.IQSize,
	}
	m.robRing.init(cfg.ROBSize)
	m.intRing.init(cfg.IntRegs)
	m.fpRing.init(cfg.FPRegs)
	m.lqRing.init(cfg.LQSize)
	m.sqRing.init(cfg.SQSize)
	if m.iqCap <= 0 {
		m.iqCap = pipeline.Inf
	}
	m.iqHeap = newTimeHeap(m.iqCap)
	m.fuCount = [isa.NumFUKinds]int{
		isa.FUALU:  cfg.NumALU,
		isa.FUMul:  cfg.NumMul,
		isa.FUDiv:  cfg.NumDiv,
		isa.FUFP:   cfg.NumFP,
		isa.FUFDiv: cfg.NumFDiv,
		isa.FUMem:  cfg.NumMem,
	}
	for k := range m.fuCount {
		if m.fuCount[k] <= 0 {
			m.fuCount[k] = 1
		}
		m.fuBucketCyc[k] = make([]int64, fuWindow)
		m.fuBucketCnt[k] = make([]uint16, fuWindow)
	}
	if m.unit != nil {
		capacity := spec.LTP.Entries
		if capacity <= 0 {
			capacity = cfg.ROBSize
		}
		m.ltp = &ltpModel{
			parksNU:  spec.LTP.Mode.ParksNU(),
			parksNR:  spec.LTP.Mode.ParksNR(),
			early:    float64(cfg.Hier.TagEarlyLead),
			capacity: capacity,
			occupied: newTimeHeap(capacity),
		}
	}
	return m
}

// score advances the dataflow timeline by one measured µop.
func (m *machine) score(u *isa.Uop) {
	m.n++
	// Co-runner cache pressure is modelled functionally (shared-level
	// pollution, no MSHR timing) — a documented fidelity tolerance.
	m.hier.WarmTick()

	// Front end: sustained dispatch throughput, gated by redirect
	// bubbles and the ROB window.
	d := m.lastDisp + 1/m.cal.DispatchWidth
	if m.fetchFloor > d {
		d = m.fetchFloor
	}
	if rob := m.robRing.peek(); rob > d {
		d = rob
	}

	// Operand readiness (registers, plus store-forwarded memory).
	depReady := d
	if u.Src1.Valid() && m.regReady[u.Src1] > depReady {
		depReady = m.regReady[u.Src1]
	}
	if u.Src2.Valid() && m.regReady[u.Src2] > depReady {
		depReady = m.regReady[u.Src2]
	}
	if u.Op == isa.Load {
		if sr, ok := m.storeReady[u.Addr]; ok && sr > depReady {
			depReady = sr
		}
	}

	// LTP: a µop whose operands are far in the future parks instead of
	// occupying the IQ (and, for register writers, the rename file)
	// while it sleeps. Urgent µops — long-latency loads and the chains
	// feeding their addresses — never park under NU.
	parked := false
	if m.ltp != nil {
		slack := depReady - d
		urgent := m.unit.Urgent(u.PC)
		if urgent {
			m.ltp.classUrgent++
		}
		// The monitor only enables parking while DRAM activity is
		// outstanding (the paper's DRAM-timer duty cycle). Under NU,
		// every non-urgent non-branch µop parks — ready or not, as the
		// paper's decode-time classification does — deferring its IQ
		// and rename-register allocation; under NR, µops whose
		// operands are far in the future park regardless of urgency.
		eligible := d < m.dramActiveUntil && !u.IsBranch() &&
			((m.ltp.parksNU && !urgent) ||
				(m.ltp.parksNR && slack > m.cal.ParkThreshold))
		if eligible {
			m.ltp.occupied.popUntil(d)
			if len(m.ltp.occupied) < m.ltp.capacity {
				parked = true
				wake := depReady
				if m.ltp.parksNR && slack > m.cal.ParkThreshold {
					wake -= m.ltp.early
					if wake < d {
						wake = d
					}
				}
				m.ltp.occupied.push(wake)
				m.ltp.parkedTotal++
				m.ltp.classNonReady++
				sleep := wake - d
				m.ltp.sleepSum += sleep
				if u.Dst.Valid() {
					m.ltp.sleepRegs += sleep
				}
				switch u.Op {
				case isa.Load:
					m.ltp.sleepLoads += sleep
				case isa.Store:
					m.ltp.sleepStores += sleep
				}
			} else {
				m.ltp.forced++
			}
		}
	}

	// The windows a non-parked µop must fit into: the IQ and, for
	// register writers, the rename file.
	if !parked {
		d = m.iqHeap.admit(d, m.iqCap)
		if u.Dst.Valid() {
			rr := &m.intRing
			if u.Dst.IsFP() {
				rr = &m.fpRing
			}
			if rel := rr.peek(); rel > d {
				d = rel
			}
		}
	}
	lsqHeld := u.IsMem() && (!parked || !m.cfg.LateLSQAlloc)
	if lsqHeld {
		lsq := &m.lqRing
		if u.Op == isa.Store {
			lsq = &m.sqRing
		}
		if rel := lsq.peek(); rel > d {
			d = rel
		}
	}
	if depReady < d {
		depReady = d
	}

	// Back end: issue at operand readiness (woken µops pay the queue
	// drain), execute at the op's latency — loads at the level the
	// timing-free hierarchy walk serves them from.
	issue := depReady
	if parked {
		issue += m.cal.WakeDelay
	}
	lat := float64(isa.Latency[u.Op])
	isDRAM := false
	var level mem.Level
	if u.Op == isa.Load {
		// The measured region walks the real timed hierarchy: MSHR
		// occupancy, merges onto in-flight fills (including
		// prefetches) and DRAM contention all come from the same
		// machinery the cycle backend uses, at the model's clock.
		r, ok := m.hier.Load(u.PC, u.Addr, uint64(issue))
		for !ok {
			issue += 2 // L1 MSHRs full: replay, as the pipeline does
			r, ok = m.hier.Load(u.PC, u.Addr, uint64(issue))
		}
		llat := float64(r.Latency(uint64(issue))) + m.cal.LoadExtra
		level = r.Level
		isDRAM = level == mem.LvlDRAM
		if isDRAM {
			m.dramLatSum += llat
		}
		lat = llat
	}
	// Functional-unit contention: pipelined classes accept one µop per
	// unit per cycle (bucket-counted, so an out-of-order µop can claim
	// an earlier free slot); unpipelined units are busy for the full
	// latency.
	fu := u.Op.FU()
	if isa.Pipelined[u.Op] {
		issue = m.fuIssue(fu, issue)
	} else {
		if m.fuFree[fu] > issue {
			issue = m.fuFree[fu]
		}
		m.fuFree[fu] = issue + lat
	}
	complete := issue + lat
	if isDRAM && complete > m.dramActiveUntil {
		m.dramActiveUntil = complete
	}

	if u.IsBranch() {
		if !m.bp.Lookup(u.PC, u.Taken, u.Target) {
			floor := complete + float64(m.cfg.FrontEndDepth) + m.cal.BranchBubble
			if floor > m.fetchFloor {
				m.fetchFloor = floor
			}
		}
	}

	// In-order retirement.
	retire := complete
	if m.lastRetire > retire {
		retire = m.lastRetire
	}
	m.lastRetire = retire

	// Window bookkeeping and dataflow updates.
	m.robRing.push(retire)
	m.robOcc += retire - d
	if !parked {
		m.iqHeap.push(issue)
		m.iqOcc += issue - d
	}
	if u.Dst.Valid() {
		m.regReady[u.Dst] = complete
		m.rfWrites++
		if !parked {
			if u.Dst.IsFP() {
				m.fpRing.push(retire)
				m.fpOcc += retire - d
			} else {
				m.intRing.push(retire)
				m.intOcc += retire - d
			}
		}
	}
	if u.Src1.Valid() {
		m.rfReads++
	}
	if u.Src2.Valid() {
		m.rfReads++
	}
	switch u.Op {
	case isa.Load:
		if lsqHeld {
			m.lqRing.push(retire)
			m.lqOcc += retire - d
		}
	case isa.Store:
		m.stores++
		// Stores drain to the hierarchy after commit; a missing
		// store's SQ entry outlives retirement by part of the fill
		// (post-commit write buffering overlaps the rest).
		res := m.hier.StoreCommit(u.Addr, uint64(retire))
		drain := 0.0
		if av := float64(res.Avail); av > retire {
			drain = (av - retire) * m.cal.StoreDrain
		}
		m.storeReady[u.Addr] = complete
		if m.stores&0xfff == 0 {
			m.pruneStores(d)
		}
		if lsqHeld {
			m.sqRing.push(retire + drain)
			m.sqOcc += retire + drain - d
		}
	}
	if m.unit != nil {
		// Classification keeps training through the measured region,
		// on the level the timed walk served the load from.
		m.unit.WarmObserve(u, level)
	}
	m.lastDisp = d
}

// fuWindow is the bucket horizon (power of two): issue times never
// trail the dispatch clock and never lead it by more than the longest
// structural wait, so 8192 cycle slots recycle safely.
const fuWindow = 1 << 13

// fuIssue claims the earliest issue slot at or after t on one of the
// class's units: each integer cycle bucket admits at most one issue
// per unit.
func (m *machine) fuIssue(k isa.FUKind, t float64) float64 {
	cyc, cnt := m.fuBucketCyc[k], m.fuBucketCnt[k]
	units := uint16(m.fuCount[k])
	c := int64(t)
	for {
		i := c & (fuWindow - 1)
		if cyc[i] != c {
			cyc[i], cnt[i] = c, 0
		}
		if cnt[i] < units {
			cnt[i]++
			if float64(c) > t {
				t = float64(c)
			}
			return t
		}
		c++
	}
}

// pruneStores drops forwarding entries already in the past — a load
// can only be constrained by a store whose data is still in flight —
// so the map stays bounded by in-flight stores, not footprint.
func (m *machine) pruneStores(now float64) {
	for a, t := range m.storeReady {
		if t <= now {
			delete(m.storeReady, a)
		}
	}
}

// release hands the lane's cache set copies and predictor tables back
// for reuse by later clones, as a finished cycle lane does. The machine
// must not be used afterwards.
func (m *machine) release() {
	m.hier.Release()
	bpred.Release(m.bp)
}

// snapshot folds the timeline into the Stats shape the cycle backend
// reports.
func (m *machine) snapshot() sim.Stats {
	cycles := m.lastRetire
	if m.lastDisp > cycles {
		cycles = m.lastDisp
	}
	cycles *= m.cal.CPIScale
	cyc := uint64(math.Ceil(cycles))
	if m.n > 0 && cyc == 0 {
		cyc = 1
	}
	st := sim.Stats{}
	r := &st.Result
	r.Cycles = cyc
	r.Committed = m.n
	r.Fetched = m.n
	if m.n > 0 {
		r.CPI = float64(cyc) / float64(m.n)
	}
	if cyc > 0 {
		r.IPC = float64(m.n) / float64(cyc)
		fc := float64(cyc)
		clamp := func(v, lim float64) float64 {
			if lim > 0 && v > lim {
				return lim
			}
			return v
		}
		r.MLP = clamp(m.dramLatSum/fc, float64(m.cfg.Hier.L1DMSHRs))
		r.AvgROB = clamp(m.robOcc/fc, float64(m.cfg.ROBSize))
		r.AvgIQ = clamp(m.iqOcc/fc, float64(m.cfg.IQSize))
		r.AvgLQ = clamp(m.lqOcc/fc, float64(m.cfg.LQSize))
		r.AvgSQ = clamp(m.sqOcc/fc, float64(m.cfg.SQSize))
		r.AvgIntRF = clamp(m.intOcc/fc, float64(m.cfg.IntRegs))
		r.AvgFPRF = clamp(m.fpOcc/fc, float64(m.cfg.FPRegs))
	}
	r.AvgLoadLatency = m.hier.AvgLoadLatency()
	r.Loads, r.Stores = m.hier.Loads, m.hier.Stores
	r.LoadLevel = m.hier.LoadLevel
	r.DemandDRAM = m.hier.DemandDRAM
	r.L1DMissRate = m.hier.L1D.MissRate()
	r.PrefIssued = m.hier.PrefetchIssued
	r.CorunnerAccesses = m.hier.CorunnerAccesses
	r.CorunnerDRAM = m.hier.CorunnerDRAM
	r.CorunnerStalls = m.hier.CorunnerStalls
	r.Branches = m.bp.Stats().Branches
	r.Mispredicts = m.bp.Stats().Mispredicts
	r.Squashes = m.bp.Stats().Mispredicts
	r.Issues = m.n
	r.RFReads, r.RFWrites = m.rfReads, m.rfWrites

	if m.ltp != nil {
		fc := float64(r.Cycles)
		ls := &sim.LTPStats{
			ParkedTotal:   m.ltp.parkedTotal,
			WokenTotal:    m.ltp.parkedTotal,
			ForcedParks:   m.ltp.forced,
			Enqueues:      m.ltp.parkedTotal,
			Dequeues:      m.ltp.parkedTotal,
			ClassUrgent:   m.ltp.classUrgent,
			ClassNonReady: m.ltp.classNonReady,
			UITLen:        m.unit.UITTable().Len(),
			LLPredAcc:     1,
		}
		if fc > 0 {
			ls.AvgInsts = m.ltp.sleepSum / fc
			ls.AvgRegs = m.ltp.sleepRegs / fc
			ls.AvgLoads = m.ltp.sleepLoads / fc
			ls.AvgStores = m.ltp.sleepStores / fc
			ls.EnabledFrac = math.Min(1, m.dramLatSum/fc)
		}
		st.LTP = ls
	}
	return st
}
