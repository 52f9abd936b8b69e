package pipeline

import (
	"fmt"

	"ltp/internal/isa"
)

// CheckInvariants validates cross-structure consistency; tests call it
// between cycles. It returns the first violation found.
func (p *Pipeline) CheckInvariants() error {
	// Free-list conservation: registers are either free, mapped by the
	// commit RAT, or held by an in-flight (or drained-committed) producer.
	if err := p.checkRegConservation(); err != nil {
		return err
	}

	// ROB is in program order and within capacity.
	var prev uint64
	first := true
	var robErr error
	parkedInROB := 0
	p.rob.Walk(func(f *Inflight) {
		if robErr != nil {
			return
		}
		if !first && f.Seq() <= prev {
			robErr = fmt.Errorf("ROB out of order: %d after %d", f.Seq(), prev)
		}
		prev = f.Seq()
		first = false
		if f.Squashed {
			robErr = fmt.Errorf("squashed instruction in ROB: %s", f)
		}
		if f.Parked {
			parkedInROB++
		}
		first = false
	})
	if robErr != nil {
		return robErr
	}
	if p.rob.Len() > p.rob.Cap() {
		return fmt.Errorf("ROB over capacity: %d > %d", p.rob.Len(), p.rob.Cap())
	}

	// Every parked instruction is in the ROB; the Parker agrees on count
	// and, when it can check itself, on its own bookkeeping.
	if got := p.parker.ParkedCount(); got != parkedInROB {
		return fmt.Errorf("parker holds %d instructions, ROB sees %d parked", got, parkedInROB)
	}
	if c, ok := p.parker.(interface{ CheckInvariants() error }); ok {
		if err := c.CheckInvariants(); err != nil {
			return err
		}
	}

	if err := p.checkIQ(); err != nil {
		return err
	}

	// LQ/SQ are in program order and within capacity.
	for _, q := range []*orderedQueue{p.lq, p.sq} {
		if q.Len() > q.Cap() {
			return fmt.Errorf("LSQ over capacity: %d > %d", q.Len(), q.Cap())
		}
		for i := 1; i < len(q.entries); i++ {
			if q.entries[i-1].Seq() >= q.entries[i].Seq() {
				return fmt.Errorf("LSQ out of order at %d", i)
			}
		}
	}

	// Replay buffer alignment: the ROB head commits from fetchBuf[bufHead].
	if h := p.rob.Head(); h != nil && p.bufBase != h.Seq() {
		return fmt.Errorf("replay buffer base %d != ROB head %d", p.bufBase, h.Seq())
	}
	if p.fetchPos < p.bufHead || p.fetchPos > len(p.fetchBuf) {
		return fmt.Errorf("fetchPos %d outside live buffer [%d, %d]", p.fetchPos, p.bufHead, len(p.fetchBuf))
	}

	// Late-allocation invariant: only parked instructions lack a
	// destination register; non-parked sources are resolved or lazily
	// resolvable to a producer that is itself tracked.
	var lateErr error
	p.rob.Walk(func(f *Inflight) {
		if lateErr != nil {
			return
		}
		if !f.Parked && f.HasDst() && f.DstPreg == NoPReg {
			lateErr = fmt.Errorf("non-parked instruction without register: %s", f)
		}
		if f.Parked && f.DstPreg != NoPReg {
			lateErr = fmt.Errorf("parked instruction with register: %s", f)
		}
	})
	return lateErr
}

// checkRegConservation verifies the physical register pool accounting.
// Every register is exactly one of: on the free list, mapped by the commit
// RAT (one per architectural register, always), or held by an in-flight
// producer in the ROB. Hence FreeCount == avail − heldByROB per class.
func (p *Pipeline) checkRegConservation() error {
	held := map[*RegFile]int{p.intRF: 0, p.fpRF: 0}
	p.rob.Walk(func(f *Inflight) {
		if f.HasDst() && f.DstPreg != NoPReg {
			held[p.classRF(f.U.Dst)]++
		}
	})
	// The commit RAT must map every architectural register to a distinct
	// physical register.
	seen := make(map[isa.Reg]map[PReg]bool)
	for i := 0; i < isa.NumArchRegs; i++ {
		r := isa.Reg(i)
		class := isa.Reg(0)
		if r.IsFP() {
			class = 1
		}
		if seen[class] == nil {
			seen[class] = make(map[PReg]bool)
		}
		pr := p.rat.CommittedPreg(r)
		if seen[class][pr] {
			return fmt.Errorf("commit RAT aliases physical register %d", pr)
		}
		seen[class][pr] = true
	}
	for _, rf := range []*RegFile{p.intRF, p.fpRF} {
		if rf.FreeCount() != rf.avail-held[rf] {
			return fmt.Errorf("%s regfile leak: free=%d avail=%d heldByROB=%d",
				rf.name, rf.FreeCount(), rf.avail, held[rf])
		}
	}
	return nil
}

// checkIQ validates the event-driven select bookkeeping (iq.go): every IQ
// entry is dispatched, unissued and unparked, and sits either in the
// ready list or a timed event with no pending producer, or on the waiters
// list of exactly its pending producers; waiters lists hold only such
// waiting entries; retired records hold no waiter links.
func (p *Pipeline) checkIQ() error {
	if p.iq.Len() > p.iq.Cap() {
		return fmt.Errorf("IQ over capacity: %d > %d", p.iq.Len(), p.iq.Cap())
	}
	inIQ, ready := 0, 0
	var err error
	p.rob.Walk(func(f *Inflight) {
		if err != nil {
			return
		}
		for _, c := range f.waiters {
			if c.Issued || c.Squashed || !c.InIQ || c.iqState != iqWaiting ||
				(c.waitOn[0] != f && c.waitOn[1] != f) {
				err = fmt.Errorf("stale waiter %s on %s", c, f)
				return
			}
		}
		if f.Issued && len(f.waiters) > 0 {
			err = fmt.Errorf("issued producer %s still has %d waiters", f, len(f.waiters))
			return
		}
		if !f.InIQ {
			if f.iqState != iqOut || f.waitOn != [2]*Inflight{} {
				err = fmt.Errorf("instruction outside the IQ keeps select state: %s", f)
			}
			return
		}
		inIQ++
		if f.Issued || f.Parked || f.Squashed || f.Committed || f.wibResident {
			err = fmt.Errorf("invalid IQ entry state: %s", f)
			return
		}
		var want [2]*Inflight
		for i := 0; i < neededSrcs(f); i++ {
			want[i] = p.expectedProducer(f, i)
		}
		if f.waitOn != want {
			err = fmt.Errorf("IQ entry %s waits on %v, pending producers are %v", f, f.waitOn, want)
			return
		}
		switch f.iqState {
		case iqWaiting:
			for i, prod := range f.waitOn {
				if prod == nil || (i == 1 && prod == f.waitOn[0]) {
					continue
				}
				n := 0
				for _, c := range prod.waiters {
					if c == f {
						n++
					}
				}
				if n != 1 {
					err = fmt.Errorf("IQ entry %s listed %d times by producer %s", f, n, prod)
					return
				}
			}
			if want == [2]*Inflight{} {
				err = fmt.Errorf("IQ entry %s waits with no pending producer", f)
			}
		case iqTimed:
			if want != [2]*Inflight{} || f.iqAt <= p.now {
				err = fmt.Errorf("timed IQ entry %s (at %d, now %d) is misplaced", f, f.iqAt, p.now)
			}
		case iqReady:
			ready++
			if want != [2]*Inflight{} || f.iqAt > p.now {
				err = fmt.Errorf("ready IQ entry %s (at %d, now %d) is misplaced", f, f.iqAt, p.now)
			}
		default:
			err = fmt.Errorf("IQ entry %s has no select state", f)
		}
	})
	if err != nil {
		return err
	}
	if inIQ != p.iq.Len() {
		return fmt.Errorf("IQ counts %d entries, ROB holds %d", p.iq.Len(), inIQ)
	}
	rl := p.iq.ready.Items()
	if len(rl) != ready {
		return fmt.Errorf("ready list holds %d entries, %d are ready", len(rl), ready)
	}
	for i, f := range rl {
		if f.iqState != iqReady || !f.InIQ || (i > 0 && rl[i-1].Seq() >= f.Seq()) {
			return fmt.Errorf("ready list corrupt at %d: %s", i, f)
		}
	}
	for _, recs := range [][]*Inflight{p.retired, p.pool} {
		for _, f := range recs {
			if len(f.waiters) > 0 || f.waitOn != [2]*Inflight{} {
				return fmt.Errorf("retired record %s keeps waiter links", f)
			}
		}
	}
	return nil
}

// expectedProducer recomputes, without resolving anything, the producer
// source i of f must wait on: a still-parked producer, or the unissued
// writer of an unready register; nil when the operand's ready cycle is
// known.
func (p *Pipeline) expectedProducer(f *Inflight, i int) *Inflight {
	r := f.U.Src1
	if i == 1 {
		r = f.U.Src2
	}
	if !r.Valid() {
		return nil
	}
	if prod := f.SrcProd[i]; prod != nil {
		if prod.DstPreg == NoPReg || p.classRF(r).ReadyAt(prod.DstPreg) == neverReady {
			return prod
		}
		return nil
	}
	if p.classRF(r).ReadyAt(f.SrcPreg[i]) == neverReady {
		return f.SrcWriter[i]
	}
	return nil
}
