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
	if err := p.checkHandles(); err != nil {
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
	if c, ok := p.parker.(interface{ CheckInvariants(*Pipeline) error }); ok {
		if err := c.CheckInvariants(p); err != nil {
			return err
		}
	}

	if err := p.checkIQ(); err != nil {
		return err
	}

	// LQ/SQ are in program order and within capacity.
	for _, q := range []*lsq{&p.lq, &p.sq} {
		if q.Len() > q.Cap() {
			return fmt.Errorf("LSQ over capacity: %d > %d", q.Len(), q.Cap())
		}
		for i, e := 1, q.Items(); i < len(e); i++ {
			if e[i-1].Seq >= e[i].Seq {
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

// CheckRef reports an error unless r names a live record of this
// pipeline — handed out by the slab, not recycled since — whose seq is
// r.Seq. Parkers check the handles they hold with it.
func (p *Pipeline) CheckRef(r Ref, where string) error {
	if !p.slab.valid(r.H) {
		return fmt.Errorf("%s holds invalid handle %d (seq %d)", where, r.H, r.Seq)
	}
	if f := p.slab.at(r.H); f.pooled || f.Seq() != r.Seq {
		return fmt.Errorf("%s holds handle %d for seq %d, which names recycled record %s", where, r.H, r.Seq, f)
	}
	return nil
}

// checkHandle is CheckRef for containers that keep no seq: the handle
// must name a live record.
func (p *Pipeline) checkHandle(h Handle, where string) error {
	if !p.slab.valid(h) {
		return fmt.Errorf("%s holds invalid handle %d", where, h)
	}
	if f := p.slab.at(h); f.pooled {
		return fmt.Errorf("%s holds handle %d of recycled record %s", where, h, f)
	}
	return nil
}

// checkHandles verifies that every handle the pipeline's containers hold
// — the event heap, ROB, LQ/SQ, ready list, LL list, drain queue and
// WIB — names a live record with the expected seq, and that the slab's
// free lists hold only recycled (pool) or retired records.
func (p *Pipeline) checkHandles() error {
	for _, ev := range p.events.ev[:p.events.n] {
		if err := p.CheckRef(Ref{Seq: ev.seq, H: ev.h}, "event heap"); err != nil {
			return err
		}
	}
	for _, h := range p.rob.entries[p.rob.head:] {
		if err := p.checkHandle(h, "ROB"); err != nil {
			return err
		}
		if err := p.checkLinks(p.slab.at(h)); err != nil {
			return err
		}
	}
	lists := [][]Ref{p.lq.Items(), p.sq.Items(), p.iq.ready.Items(), p.llList.Items()}
	for i, where := range []string{"LQ", "SQ", "IQ ready list", "LL list"} {
		for _, r := range lists[i] {
			if err := p.CheckRef(r, where); err != nil {
				return err
			}
		}
	}
	for i, h := range p.drainQ {
		if err := p.checkHandle(h, "store drain queue"); err != nil {
			return err
		}
		if f := p.slab.at(h); !f.Committed || !f.IsStore() || !f.HasLSQ {
			return fmt.Errorf("store drain queue entry %d is not a draining store: %s", i, f)
		}
	}
	if p.wib != nil {
		for _, h := range p.wib.entries {
			if err := p.checkHandle(h, "WIB"); err != nil {
				return err
			}
		}
	}
	for _, h := range p.pool {
		if !p.slab.valid(h) || !p.slab.at(h).pooled {
			return fmt.Errorf("record pool holds live handle %d", h)
		}
	}
	for _, h := range p.retired {
		if !p.slab.valid(h) || p.slab.at(h).pooled {
			return fmt.Errorf("retired list holds pooled handle %d", h)
		}
	}
	return nil
}

// checkLinks verifies an in-flight record's links to other records: each
// names a live, older record that was in flight with it, at most a ROB
// window back — the window that keeps the linked record from being
// reused while f can still follow the link.
func (p *Pipeline) checkLinks(f *Inflight) error {
	links := [...]Handle{f.SrcProd[0], f.SrcProd[1], f.SrcWriter[0], f.SrcWriter[1], f.DepStore}
	for _, h := range links {
		if h == 0 {
			continue
		}
		if err := p.checkHandle(h, "operand link of "+f.String()); err != nil {
			return err
		}
		if l := p.slab.at(h); l.Seq() >= f.Seq() || f.Seq()-l.Seq() > uint64(p.cfg.ROBSize) {
			return fmt.Errorf("%s links to %s, outside its ROB window", f, l)
		}
	}
	return nil
}

// waiterNodes returns prod's waiters list.
func (p *Pipeline) waiterNodes(prod *Inflight) []waitNode {
	var out []waitNode
	for n := prod.waitHead; n != 0; n = p.slab.at(n.handle()).waitNext[n.slot()] {
		out = append(out, n)
		if len(out) > int(p.slab.n)*2 {
			break // a cycle; reported by the caller's tail check
		}
	}
	return out
}

// checkIQ validates the event-driven select bookkeeping (iq.go): every IQ
// entry is dispatched, unissued and unparked, and sits either in the
// ready list or a timed event with no pending producer, or on the waiters
// list of exactly its pending producers; waiters lists hold only such
// waiting entries and end at their tails; retired records hold no waiter
// links.
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
		nodes := p.waiterNodes(f)
		if n := len(nodes); (n == 0) != (f.waitTail == 0) || (n > 0 && nodes[n-1] != f.waitTail) {
			err = fmt.Errorf("waiters list of %s does not end at its tail", f)
			return
		}
		for _, n := range nodes {
			if err = p.checkHandle(n.handle(), "waiters list"); err != nil {
				return
			}
			c := p.slab.at(n.handle())
			if c.Issued || c.Squashed || !c.InIQ || c.iqState != iqWaiting || c.waitOn[n.slot()] != f.h {
				err = fmt.Errorf("stale waiter %s on %s", c, f)
				return
			}
		}
		if f.Issued && len(nodes) > 0 {
			err = fmt.Errorf("issued producer %s still has %d waiters", f, len(nodes))
			return
		}
		if !f.InIQ {
			if f.iqState != iqOut || f.waitOn != [2]Handle{} {
				err = fmt.Errorf("instruction outside the IQ keeps select state: %s", f)
			}
			return
		}
		inIQ++
		if f.Issued || f.Parked || f.Squashed || f.Committed || f.wibResident {
			err = fmt.Errorf("invalid IQ entry state: %s", f)
			return
		}
		var want [2]Handle
		for i := 0; i < neededSrcs(f); i++ {
			want[i] = p.expectedProducer(f, i)
		}
		if f.waitOn != want {
			err = fmt.Errorf("IQ entry %s waits on %v, pending producers are %v", f, f.waitOn, want)
			return
		}
		switch f.iqState {
		case iqWaiting:
			for i, h := range f.waitOn {
				if h == 0 || (i == 1 && h == f.waitOn[0]) {
					continue
				}
				n := 0
				for _, w := range p.waiterNodes(p.slab.at(h)) {
					if w.handle() == f.h {
						n++
					}
				}
				if n != 1 {
					err = fmt.Errorf("IQ entry %s listed %d times by producer %s", f, n, p.slab.at(h))
					return
				}
			}
			if want == [2]Handle{} {
				err = fmt.Errorf("IQ entry %s waits with no pending producer", f)
			}
		case iqTimed:
			if want != [2]Handle{} || f.iqAt <= p.now {
				err = fmt.Errorf("timed IQ entry %s (at %d, now %d) is misplaced", f, f.iqAt, p.now)
			}
		case iqReady:
			ready++
			if want != [2]Handle{} || f.iqAt > p.now {
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
	for i, r := range rl {
		f := p.slab.at(r.H)
		if f.iqState != iqReady || !f.InIQ || (i > 0 && rl[i-1].Seq >= r.Seq) {
			return fmt.Errorf("ready list corrupt at %d: %s", i, f)
		}
	}
	for _, recs := range [][]Handle{p.retired, p.pool} {
		for _, h := range recs {
			f := p.slab.at(h)
			if f.waitHead != 0 || f.waitTail != 0 || f.waitOn != [2]Handle{} {
				return fmt.Errorf("retired record %s keeps waiter links", f)
			}
		}
	}
	return nil
}

// expectedProducer recomputes, without resolving anything, the producer
// source i of f must wait on: a still-parked producer, or the unissued
// writer of an unready register; zero when the operand's ready cycle is
// known.
func (p *Pipeline) expectedProducer(f *Inflight, i int) Handle {
	r := f.U.Src1
	if i == 1 {
		r = f.U.Src2
	}
	if !r.Valid() {
		return 0
	}
	if h := f.SrcProd[i]; h != 0 {
		if prod := p.slab.at(h); prod.DstPreg == NoPReg || p.classRF(r).ReadyAt(prod.DstPreg) == neverReady {
			return h
		}
		return 0
	}
	if p.classRF(r).ReadyAt(f.SrcPreg[i]) == neverReady {
		return f.SrcWriter[i]
	}
	return 0
}
