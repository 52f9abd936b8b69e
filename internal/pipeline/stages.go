package pipeline

import (
	"fmt"
	"strings"

	"ltp/internal/isa"
)

// issueStage selects up to IssueWidth instructions, oldest first, from
// the IQ entries whose operands are available (the ready list, see iq.go)
// and begins their execution. IQ entries are freed at issue (paper §3.1).
func (p *Pipeline) issueStage() {
	sw := p.iq.ready.Sweep()
	for issued := 0; issued < p.cfg.IssueWidth; {
		r := sw.Peek()
		if r.H == 0 {
			break
		}
		f := p.slab.at(r.H)
		if !p.fus.canIssue(f.U.Op, p.now) {
			sw.Keep()
			continue
		}
		sw.Drop()
		switch {
		case f.IsLoad():
			if !p.tryIssueLoad(f) {
				p.iqSchedule(f) // retry at blockedUntil, a later cycle
				continue
			}
		case f.IsStore():
			p.issueStore(f)
		default:
			p.issueALU(f)
		}
		p.iqLeave(f)
		f.Issued = true
		f.IssuedAt = p.now
		p.fus.issue(f.U.Op, p.now)
		p.Issues++
		p.RFReads += uint64(validSrcs(f))
		issued++
	}
	sw.Close()
}

func validSrcs(f *Inflight) int {
	n := 0
	if f.U.Src1.Valid() {
		n++
	}
	if f.U.Src2.Valid() {
		n++
	}
	return n
}

// issueALU starts a non-memory operation.
func (p *Pipeline) issueALU(f *Inflight) {
	lat := uint64(isa.Latency[f.U.Op])
	f.DoneAt = p.now + lat
	if f.HasDst() {
		p.classRF(f.U.Dst).SetReady(f.DstPreg, f.DoneAt)
		p.wakeWaiters(f)
	}
	if f.U.Op.IsLongLatencyALU() && !f.LL {
		f.LL = true
		p.llList.Insert(f)
	}
	p.schedule(f.DoneAt, f, evDone)
}

// issueStore starts a store's address generation. Data may arrive later;
// commit waits for it. The violation scan runs when the address resolves.
func (p *Pipeline) issueStore(f *Inflight) {
	f.AddrKnownAt = p.now + 1
	f.DoneAt = f.AddrKnownAt
	p.schedule(f.AddrKnownAt, f, evStoreAddr)
}

// loadBlock names why tryIssueLoad last refused a load.
type loadBlock uint8

const (
	loadNotBlocked       loadBlock = iota
	loadBlockStoreSet              // predicted store has no address yet
	loadBlockParkedStore           // an older parked store has the same address
	loadBlockOlderStore            // an older store's address is unresolved
	loadBlockForwardData           // the forwarding store's data is not ready
	loadBlockMSHR                  // MSHRs full
)

var loadBlockNames = [...]string{
	loadNotBlocked:       "none",
	loadBlockStoreSet:    "store-set dependence",
	loadBlockParkedStore: "parked-store conflict",
	loadBlockOlderStore:  "unresolved older store",
	loadBlockForwardData: "forwarded data not ready",
	loadBlockMSHR:        "MSHRs full",
}

func (b loadBlock) String() string { return loadBlockNames[b] }

// blockLoad refuses a load for now: it retries two cycles later.
func (p *Pipeline) blockLoad(f *Inflight, why loadBlock) bool {
	f.blockedUntil = p.now + 2
	f.issueBlock = why
	return false
}

// tryIssueLoad attempts to issue a load: memory disambiguation, then
// store→load forwarding or a cache access. Returns false when the load
// must stay in the IQ (sets blockedUntil for the retry).
func (p *Pipeline) tryIssueLoad(f *Inflight) bool {
	now := p.now

	// Predicted dependence on a specific in-flight store (store sets).
	if f.DepStore != 0 {
		if dep := p.slab.at(f.DepStore); !dep.Committed && !dep.Squashed &&
			(dep.AddrKnownAt == 0 || dep.AddrKnownAt > now) {
			return p.blockLoad(f, loadBlockStoreSet)
		}
	}

	// A parked older store with a conflicting address forces a wait
	// (limit-study late LSQ allocation; §5.3's memory dependence rule).
	if p.parker.ParkedStoreConflict(f.U.Addr, f.Seq()) {
		return p.blockLoad(f, loadBlockParkedStore)
	}

	// Walk older stores in the SQ, youngest first. Store-set mode
	// speculates past unresolved stores.
	var fwd *Inflight
	stores := p.sq.Items()
	for i := len(stores) - 1; i >= 0; i-- {
		r := stores[i]
		if r.Seq >= f.Seq() {
			continue
		}
		st := p.slab.at(r.H)
		if st.AddrKnownAt == 0 || st.AddrKnownAt > now {
			if st.Committed {
				continue
			}
			if p.cfg.MemDep == MemDepConservative ||
				(p.cfg.MemDep == MemDepOracle && st.U.Addr == f.U.Addr) {
				return p.blockLoad(f, loadBlockOlderStore)
			}
			continue
		}
		if st.U.Addr == f.U.Addr {
			fwd = st
			break
		}
	}

	if fwd != nil {
		// Same-address older store with a resolved address: forward when
		// its data is ready, otherwise wait for the data.
		if !p.storeDataReady(fwd, now) {
			return p.blockLoad(f, loadBlockForwardData)
		}
		f.Forwarded = true
		f.MemDone = now + 1 + 2 // AGU + forwarding latency
		f.MemLevel = 0
	} else {
		res, ok := p.Hier.Load(f.U.PC, f.U.Addr, now+1)
		if !ok {
			return p.blockLoad(f, loadBlockMSHR)
		}
		f.MemDone = res.Avail
		f.MemLevel = res.Level
	}

	f.AddrKnownAt = now + 1
	f.DoneAt = f.MemDone
	if f.HasDst() {
		p.classRF(f.U.Dst).SetReady(f.DstPreg, f.MemDone)
		p.wakeWaiters(f)
	}
	if f.MemDone-now > p.cfg.LLThreshold && !f.LL {
		f.LL = true
		p.llList.Insert(f)
	}
	p.parker.NoteLoadIssued(p, f, now)
	p.schedule(f.DoneAt, f, evDone)
	return true
}

// checkViolations runs when a store's address resolves: any younger load
// that already executed with the same address read stale data and must be
// squashed (store-set training).
func (p *Pipeline) checkViolations(st *Inflight) {
	if st.Squashed {
		return
	}
	var victim *Inflight
	for _, r := range p.lq.Items() {
		if r.Seq <= st.Seq() {
			continue
		}
		ld := p.slab.at(r.H)
		if !ld.Issued || ld.Squashed {
			continue
		}
		if ld.U.Addr == st.U.Addr && ld.IssuedAt < st.AddrKnownAt && !ld.Forwarded {
			if victim == nil || ld.Seq() < victim.Seq() {
				victim = ld
			}
		}
	}
	if victim != nil {
		p.ssets.OnViolation(st, victim)
		p.squash(victim.Seq())
	}
}

// squash flushes every instruction with seq >= fromSeq and restarts fetch
// from the replay buffer.
func (p *Pipeline) squash(fromSeq uint64) {
	p.Squashes++
	victims := p.rob.SquashFrom(fromSeq)
	p.iqSquash(victims, fromSeq)
	for _, h := range victims {
		f := p.slab.at(h)
		f.Squashed = true
		if f.DstPreg != NoPReg && f.HasDst() {
			p.classRF(f.U.Dst).Free(f.DstPreg)
			f.DstPreg = NoPReg
		}
		f.HasLSQ = false
		p.recordRetired(f)
	}
	p.llList.TruncateFrom(fromSeq, nil)
	p.lq.TruncateFrom(fromSeq, nil)
	p.sq.TruncateFrom(fromSeq, nil)
	p.ssets.OnSquash(fromSeq)
	p.parker.NoteSquash(p, fromSeq, p.now)

	// Rebuild the speculative RAT from the committed state plus the
	// surviving in-flight writers, oldest to youngest.
	p.rat.RestoreFromCommit()
	p.rob.Walk(func(f *Inflight) {
		if !f.HasDst() {
			return
		}
		if f.Parked && f.DstPreg == NoPReg {
			p.rat.WriteParked(f.U.Dst, f.h)
		} else {
			p.rat.WritePhysBy(f.U.Dst, f.DstPreg, f.h)
		}
	})
	if p.wib != nil {
		p.wibSquash(fromSeq)
	}

	// Restart the front end at the squash point.
	p.pending = 0
	p.decodeQ = p.decodeQ[:0]
	p.decodeHead = 0
	p.fetchPos = p.bufHead + int(fromSeq-p.bufBase)
	p.lastFetchLine = ^uint64(0)
	if p.mispredSeq != never && p.mispredSeq >= fromSeq {
		p.mispredSeq = never
	}
	p.fetchStallUntil = p.now + p.cfg.FrontEndDepth
}

// renameStage performs LTP wakeup (priority) then renames/dispatches new
// instructions from the decode queue.
func (p *Pipeline) renameStage() {
	budget := p.cfg.RenameWidth

	// LTP wakeup first (paper §5.4: prioritize renaming from LTP).
	// Pressure means commits are blocked by the LTP itself: the pipeline
	// is stalled on a commit-freed resource while the ROB head is still
	// parked. A stall alone is not pressure — commits free resources on
	// their own, and draining the LTP early would defeat late allocation.
	// The lastCommitCycle clause is a liveness valve: if the head stays
	// parked with commits stopped for a long time, force its release.
	pressure := p.resourceStall
	if h := p.rob.Head(); h == nil || !h.Parked {
		pressure = false
	} else if p.now > p.lastCommitCycle+128 {
		pressure = true
	}
	budget -= p.parker.Wake(p, p.now, budget, pressure)
	p.resourceStall = false
	p.stallMask = 0

	for budget > 0 {
		if p.pending == 0 {
			if p.decodeHead >= len(p.decodeQ) || p.decodeQ[p.decodeHead].readyAt > p.now {
				break
			}
			if p.rob.Full() {
				p.noteStall(stallROB)
				break
			}
			d := &p.decodeQ[p.decodeHead]
			f := p.allocInflight()
			f.U = d.u
			f.FetchedAt = d.readyAt - p.cfg.FrontEndDepth
			f.RenamedAt = p.now
			f.DstPreg = NoPReg
			f.SrcPreg = [2]PReg{NoPReg, NoPReg}
			f.Mispred = d.mispred
			p.decodeHead++
			// Classification runs exactly once per dynamic instruction;
			// structural stalls retry the dispatch without re-classifying.
			p.parker.OnRename(p, f, p.now)
			p.pending = f.h
			p.pendingParked = p.parker.ShouldPark(p, f, p.now)
		}
		f := p.slab.at(p.pending)
		if p.rob.Full() {
			p.noteStall(stallROB)
			break
		}
		if p.pendingParked {
			if !p.dispatchParked(f) {
				break
			}
		} else if !p.dispatchNormal(f) {
			break
		}
		f.RenamedAt = p.now
		p.pending = 0
		p.Dispatched++
		budget--
	}
	// Compact the consumed prefix in place so the array is reused.
	switch {
	case p.decodeHead >= len(p.decodeQ):
		p.decodeQ = p.decodeQ[:0]
		p.decodeHead = 0
	case p.decodeHead >= p.decodeQCap:
		n := copy(p.decodeQ, p.decodeQ[p.decodeHead:])
		p.decodeQ = p.decodeQ[:n]
		p.decodeHead = 0
	}
}

// noteStall records a rename stall reason. Stalls on commit-freed
// resources (ROB, registers, LQ, SQ) flag resource pressure so the Parker
// releases its oldest instruction (§5.4); stalls on the LTP itself or the
// IQ do not — the LTP drains by its wakeup policy and the IQ by issue.
func (p *Pipeline) noteStall(reason int) {
	p.renameStallReasons[reason]++
	p.stallMask |= 1 << reason
	if p.parker.ParkedCount() == 0 {
		return
	}
	switch reason {
	case stallROB, stallRegs, stallLQ, stallSQ:
		p.resourceStall = true
	}
}

// resolveSources fills SrcPreg/SrcProd from the RAT.
func (p *Pipeline) resolveSources(f *Inflight) {
	srcs := [2]isa.Reg{f.U.Src1, f.U.Src2}
	for i, r := range srcs {
		if !r.Valid() {
			continue
		}
		preg, prod := p.rat.Lookup(r)
		if prod != 0 {
			f.SrcProd[i] = prod
		} else {
			f.SrcPreg[i] = preg
		}
		f.SrcWriter[i] = p.rat.Writer(r)
	}
}

// dispatchParked sends an instruction to the LTP. Returns false to stall.
func (p *Pipeline) dispatchParked(f *Inflight) bool {
	if !p.parker.CanAccept(p.now) {
		p.noteStall(stallLTP)
		return false
	}
	// The realistic design still allocates LQ/SQ at dispatch (§4.3); the
	// limit study defers it (LateLSQAlloc).
	if !p.cfg.LateLSQAlloc && f.U.Op.IsMem() {
		if !p.allocLSQ(f, true) {
			return false
		}
	}
	p.resolveSources(f)
	f.Parked = true
	f.WasParked = true
	if f.HasDst() {
		p.rat.WriteParked(f.U.Dst, f.h)
	}
	p.rob.Push(f)
	p.parker.Park(p, f, p.now)
	return true
}

// PredictedDepStore returns the in-flight store the dependence predictor
// associates with this load, without registering it (used by the Parker's
// §5.3 check before dispatch).
func (p *Pipeline) PredictedDepStore(f *Inflight) *Inflight {
	if !f.IsLoad() {
		return nil
	}
	if h := p.ssets.DependencyFor(f); h != 0 {
		return p.slab.at(h)
	}
	return nil
}

// dispatchNormal renames and dispatches into the IQ. Returns false to stall.
func (p *Pipeline) dispatchNormal(f *Inflight) bool {
	iqReserve := 0
	if p.parker.ParkedCount() > 0 || (p.wib != nil && p.wib.Len() > 0) {
		iqReserve = p.cfg.ParkReserveIQ
	}
	if p.iq.Cap()-p.iq.Len() <= iqReserve {
		p.noteStall(stallIQ)
		return false
	}
	if f.U.Op.IsMem() && !p.allocLSQCheck(f, false) {
		return false
	}
	if f.HasDst() {
		rf := p.classRF(f.U.Dst)
		free := rf.FreeCount()
		if free == 0 || (p.parker.ParkedCount() > 0 && free <= p.cfg.ParkReserveRegs) {
			p.noteStall(stallRegs)
			return false
		}
		preg, _ := rf.Alloc()
		f.DstPreg = preg
	}
	// Sources written by parked producers become lazy links, resolved
	// once the producer leaves the LTP. (Only instructions the
	// Parker declined to force-park carry such links — typically Urgent
	// instructions whose producer was parked before the UIT learned the
	// chain.)
	p.resolveSources(f)
	if f.HasDst() {
		p.rat.WritePhysBy(f.U.Dst, f.DstPreg, f.h)
	}
	if f.U.Op.IsMem() {
		p.insertLSQ(f)
	}
	p.rob.Push(f)
	p.iqInsert(f)
	return true
}

// allocLSQCheck verifies LQ/SQ space for a non-parked memory op, honoring
// the reservation for parked instructions.
func (p *Pipeline) allocLSQCheck(f *Inflight, parked bool) bool {
	if f.IsLoad() {
		reserve := 0
		if !parked && p.parker.ParkedCount() > 0 {
			reserve = p.cfg.ParkReserveLQ
		}
		if p.lq.FreeSlots() <= reserve {
			p.noteStall(stallLQ)
			return false
		}
		return true
	}
	reserve := 0
	if !parked && p.parker.ParkedCount() > 0 {
		reserve = p.cfg.ParkReserveSQ
	}
	if p.sq.FreeSlots() <= reserve {
		p.noteStall(stallSQ)
		return false
	}
	return true
}

// allocLSQ checks and inserts in one step (parked dispatch path).
func (p *Pipeline) allocLSQ(f *Inflight, parked bool) bool {
	if f.IsLoad() {
		if p.lq.Full() {
			p.noteStall(stallLQ)
			return false
		}
	} else if p.sq.Full() {
		p.noteStall(stallSQ)
		return false
	}
	_ = parked
	p.insertLSQ(f)
	return true
}

// insertLSQ places a memory op in its queue and runs dependence-predictor
// bookkeeping.
func (p *Pipeline) insertLSQ(f *Inflight) {
	if f.IsLoad() {
		p.lq.Insert(f)
		f.DepStore = p.ssets.DependencyFor(f)
	} else {
		p.sq.Insert(f)
		p.ssets.OnDispatchStore(f)
	}
	f.HasLSQ = true
}

// unparkFloor is the resource slack non-oldest unparks must leave behind.
// The oldest parked instruction may consume the last register/LQ/SQ entry
// (it commits before every other parked instruction, so it always frees
// resources); younger ones must not starve it — in-order commit would
// otherwise deadlock with younger unparked instructions holding the last
// resources while an older parked instruction waits for one.
const unparkFloor = 2

// CanUnpark reports whether the pipeline can absorb a parked instruction
// this cycle (IQ slot, physical register, LSQ entry if deferred). oldest
// marks the oldest parked instruction, which may dig into the reserved
// slack.
func (p *Pipeline) CanUnpark(f *Inflight, oldest bool) bool {
	floor := unparkFloor
	if oldest {
		floor = 0
	}
	if p.iq.Full() {
		return false
	}
	if f.HasDst() && p.classRF(f.U.Dst).FreeCount() <= floor {
		return false
	}
	if p.cfg.LateLSQAlloc && f.U.Op.IsMem() && !f.HasLSQ {
		if f.IsLoad() && p.lq.FreeSlots() <= floor {
			return false
		}
		if f.IsStore() && p.sq.FreeSlots() <= floor {
			return false
		}
	}
	return true
}

// Unpark performs the late rename of an instruction leaving the LTP (the
// paper's RAT-LTP) and inserts it into the IQ. The caller must have
// checked CanUnpark.
func (p *Pipeline) Unpark(f *Inflight, now uint64) {
	if f.HasDst() {
		preg, ok := p.classRF(f.U.Dst).Alloc()
		if !ok {
			panic("pipeline: Unpark without a free register (CanUnpark not checked)")
		}
		f.DstPreg = preg
		p.rat.ResolveParked(f.U.Dst, f.h, preg)
	}
	// Resolve sources produced by previously-parked instructions: LTP
	// leaves in an order where producers depart no later than consumers,
	// so their registers are known by now.
	for i, h := range f.SrcProd {
		if h == 0 {
			continue
		}
		prod := p.slab.at(h)
		if prod.DstPreg == NoPReg {
			panic(fmt.Sprintf("pipeline: unparking %s before its producer %s", f.String(), prod.String()))
		}
		f.SrcPreg[i] = prod.DstPreg
		f.SrcProd[i] = 0
	}
	f.Parked = false
	if p.cfg.LateLSQAlloc && f.U.Op.IsMem() && !f.HasLSQ {
		p.insertLSQ(f)
	}
	p.iqInsert(f)
	p.unparked++
}

// fetchStage pulls µops from the replay buffer / emulator into the decode
// queue, modelling I-cache latency, taken-branch fetch breaks, and
// misprediction stalls.
func (p *Pipeline) fetchStage() {
	if p.now < p.fetchStallUntil || p.mispredSeq != never {
		return
	}
	for budget := p.cfg.FetchWidth; budget > 0; budget-- {
		if len(p.decodeQ)-p.decodeHead >= p.decodeQCap {
			return
		}
		u, ok := p.peekFetch()
		if !ok {
			return
		}
		// Instruction cache: one access per new line.
		lineA := u.PC >> 6
		if lineA != p.lastFetchLine {
			res := p.Hier.FetchInst(u.PC, p.now)
			p.lastFetchLine = lineA
			if res.Avail > p.now+p.Hier.Config().L1Latency {
				p.fetchStallUntil = res.Avail
				return
			}
		}

		d := decoded{u: *u, readyAt: p.now + p.cfg.FrontEndDepth}
		if u.Op == isa.Branch {
			correct := p.predictBranch(u)
			if !correct {
				d.mispred = true
			}
		}
		p.decodeQ = append(p.decodeQ, d)
		p.fetchPos++
		p.Fetched++

		if u.Op == isa.Branch {
			if d.mispred {
				p.mispredSeq = u.Seq
				p.fetchStallUntil = never
				return
			}
			if u.Taken {
				p.lastFetchLine = ^uint64(0) // redirect: next fetch touches a new line
				return                       // taken-branch fetch break
			}
		}
	}
}

// peekFetch returns the next µop to fetch without consuming it, pulling
// from the emulator into the replay buffer as needed. When the buffer's
// array is full and committed µops fill at least a quarter of it, the
// live window moves to the front instead of the array growing, so the
// array stays within a small multiple of the in-flight window (ROB,
// decode queue and the fetch group) and each µop is copied a few times
// at most.
func (p *Pipeline) peekFetch() (*Uop, bool) {
	if p.fetchPos < len(p.fetchBuf) {
		return &p.fetchBuf[p.fetchPos], true
	}
	if p.streamDone {
		return nil, false
	}
	if !p.stream.Next(&p.next) {
		p.streamDone = true
		return nil, false
	}
	if p.bufHead == len(p.fetchBuf) {
		// Logically empty: (re)anchor the base seq. This matters on the
		// first fetch after a functional warm-up consumed a stream prefix.
		p.bufBase = p.next.Seq
	}
	if len(p.fetchBuf) == cap(p.fetchBuf) && p.bufHead > 0 && 4*p.bufHead >= len(p.fetchBuf) {
		n := copy(p.fetchBuf, p.fetchBuf[p.bufHead:])
		p.fetchBuf = p.fetchBuf[:n]
		p.fetchPos -= p.bufHead
		p.bufHead = 0
	}
	p.fetchBuf = append(p.fetchBuf, uopOf(&p.next))
	return &p.fetchBuf[p.fetchPos], true
}

// predictBranch consults the predictor, training only the first time a
// branch seq is seen (replays after squashes re-predict without
// re-training the statistics).
func (p *Pipeline) predictBranch(u *Uop) bool {
	if u.Seq >= p.trainedSeq {
		p.trainedSeq = u.Seq + 1
		return p.BP.Lookup(u.PC, u.Taken, u.Target)
	}
	return p.BP.PredictOnly(u.PC, u.Taken, u.Target)
}

// sample integrates per-cycle occupancies for the paper's Fig. 1c/7 style
// statistics.
func (p *Pipeline) sample() {
	p.OccIQ.Add(float64(p.iq.Len()))
	p.OccROB.Add(float64(p.rob.Len()))
	p.OccLQ.Add(float64(p.lq.Len()))
	p.OccSQ.Add(float64(p.sq.Len()))
	p.OccIntRF.Add(float64(p.intRF.InUse()))
	p.OccFPRF.Add(float64(p.fpRF.InUse()))
	p.OccOutstanding.Add(float64(p.Hier.OutstandingDemand(p.now)))
}

// Run simulates until maxInsts have committed, the program ends, or
// maxCycles elapse (0 = no cycle cap). It returns the number of committed
// instructions. When a cancel channel is armed (SetCancel), Run also
// returns — promptly, within cancelPollCycles cycles — once that channel
// closes, with Aborted reporting true; a watchdog failure returns at
// once, with Aborted true and Err set.
//
// Run gives the same results, bit for bit, as calling Cycle until the
// same stop rule holds, but it does not simulate idle stretches: after
// a cycle that changed no state (see idle.go) it computes the earliest
// cycle at which anything can change and accounts for the cycles before
// it in one step. Runs with co-runners attached, whose traffic ticks
// every cycle, and the WIB baseline step every cycle.
func (p *Pipeline) Run(maxInsts uint64, maxCycles uint64) uint64 {
	skips := p.wib == nil && !p.Hier.HasCorunners()
	idle := false
	for p.committed < maxInsts && !p.aborted {
		if maxCycles > 0 && p.now >= maxCycles {
			break
		}
		if p.finished() {
			break
		}
		if p.cancelCh != nil && p.now%cancelPollCycles == 0 {
			select {
			case <-p.cancelCh:
				p.aborted = true
				return p.committed
			default:
			}
		}
		if idle {
			idle = false
			if p.skipIdle(maxCycles) {
				continue // re-check the stop rule at the window's last cycle
			}
		}
		before := p.activity()
		p.Cycle()
		idle = skips && p.activity() == before && p.iq.ready.Len() == 0
	}
	return p.committed
}

// finished reports whether the program has ended and every instruction
// fetched from it has committed: the stream is exhausted and nothing
// waits in the fetch buffer, the decode queue, dispatch or the ROB.
func (p *Pipeline) finished() bool {
	return p.streamDone && p.rob.Len() == 0 && p.pending == 0 &&
		len(p.decodeQ) == 0 && p.fetchPos >= len(p.fetchBuf)
}

// debugDump renders pipeline state for watchdog errors: the occupancies,
// why the ROB head cannot move, and the oldest in-flight instructions
// with what each waits for.
func (p *Pipeline) debugDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d committed=%d rob=%d iq=%d lq=%d sq=%d parked=%d intRF.free=%d fpRF.free=%d\n",
		p.now, p.committed, p.rob.Len(), p.iq.Len(), p.lq.Len(), p.sq.Len(),
		p.parker.ParkedCount(), p.intRF.FreeCount(), p.fpRF.FreeCount())
	if h := p.rob.Head(); h != nil {
		fmt.Fprintf(&b, "rob head: %s addrKnown=%d done=%v doneAt=%d\n", h.String(), h.AddrKnownAt, h.Done, h.DoneAt)
		fmt.Fprintf(&b, "rob head blocked: %s\n", p.blocker(h))
	}
	n := 0
	p.rob.Walk(func(f *Inflight) {
		if n < 16 {
			fmt.Fprintf(&b, "  %s: %s\n", f.String(), p.blocker(f))
		}
		n++
	})
	return b.String()
}

// blocker names what an in-flight instruction is waiting for.
func (p *Pipeline) blocker(f *Inflight) string {
	var parts []string
	switch {
	case f.Parked:
		return "parked in the LTP"
	case f.wibResident:
		parts = append(parts, "drained into the WIB")
	case f.InIQ:
		for i := 0; i < neededSrcs(f); i++ {
			if f.waitOn[i] == 0 {
				continue
			}
			switch prod := p.slab.at(f.waitOn[i]); {
			case prod.Parked:
				parts = append(parts, fmt.Sprintf("src%d waiting on parked producer seq %d", i+1, prod.Seq()))
			default:
				parts = append(parts, fmt.Sprintf("src%d waiting on producer seq %d (not issued, readyAt unknown)", i+1, prod.Seq()))
			}
		}
		switch f.iqState {
		case iqTimed:
			parts = append(parts, fmt.Sprintf("in IQ, can issue at cycle %d", f.iqAt))
		case iqReady:
			parts = append(parts, "in IQ, ready, not selected")
		}
	case f.IsStore() && (f.AddrKnownAt == 0 || f.AddrKnownAt > p.now):
		parts = append(parts, fmt.Sprintf("store address resolves at cycle %d", f.AddrKnownAt))
	case f.IsStore():
		parts = append(parts, "store data not ready")
	case !f.Done || f.DoneAt > p.now:
		parts = append(parts, fmt.Sprintf("executing, done at cycle %d", f.DoneAt))
	default:
		parts = append(parts, "ready to commit")
	}
	if !f.Issued && f.blockedUntil > 0 {
		parts = append(parts, fmt.Sprintf("blockedUntil=%d", f.blockedUntil))
	}
	if !f.Issued && f.issueBlock != loadNotBlocked {
		parts = append(parts, "last load refusal: "+f.issueBlock.String())
	}
	return strings.Join(parts, "; ")
}
