package pipeline

import "fmt"

// Event-driven select. Two facts make it exact:
//
//   - a physical register's ready cycle is written once per allocation,
//     when its producer issues (issueALU, tryIssueLoad), and every
//     execution latency is at least one cycle;
//   - a parked producer gets its register only at Unpark, and issues
//     later still.
//
// So an IQ entry whose operand is not known yet waits on the producer
// that will make it known, and moves on when that producer issues. Once
// no producer is pending, the entry's earliest issue cycle is fixed:
// max(operand ready cycles, blockedUntil). It is then scheduled as an
// evIQReady event at that cycle, or put straight into the ready list if
// the cycle has come. Select walks only the ready list, which holds
// exactly the entries a scan of the whole IQ would find with their
// operands available, in the same (program) order.

// neededSrcs returns how many leading sources must be available to issue:
// stores issue on their address operand alone (split store-address /
// store-data); everything else needs both.
func neededSrcs(f *Inflight) int {
	if f.IsStore() {
		return 1
	}
	return 2
}

// operandReadyAt returns the cycle source i of f becomes available: 0 for
// an absent operand, neverReady while its producer has not issued. A lazy
// link to a formerly parked producer is upgraded to its register on the
// way.
func (p *Pipeline) operandReadyAt(f *Inflight, i int) uint64 {
	r := f.U.Src1
	if i == 1 {
		r = f.U.Src2
	}
	if !r.Valid() {
		return 0
	}
	if prod := f.SrcProd[i]; prod != nil {
		if prod.DstPreg == NoPReg {
			return neverReady // producer still parked
		}
		f.SrcPreg[i] = prod.DstPreg
		f.SrcProd[i] = nil
	}
	pr := f.SrcPreg[i]
	if pr == NoPReg {
		panic("pipeline: unresolved source on instruction: " + f.String())
	}
	return p.classRF(r).ReadyAt(pr)
}

// pendingProducer returns the instruction whose issue will make source i
// of f known, or nil when the operand's ready cycle is already known.
func (p *Pipeline) pendingProducer(f *Inflight, i int) *Inflight {
	if p.operandReadyAt(f, i) != neverReady {
		return nil
	}
	// An unready register is still owned by its allocating writer, which
	// has not committed, so the rename-time writer link is live.
	if prod := f.SrcProd[i]; prod != nil {
		return prod
	}
	if w := f.SrcWriter[i]; w != nil && !w.Issued {
		return w
	}
	panic(fmt.Sprintf("pipeline: no pending producer for unready source %d of %s", i, f.String()))
}

// iqInsert enters an instruction into the IQ (dispatch, Unpark, WIB
// re-insertion): it waits on its pending producers, or is scheduled when
// none is left.
func (p *Pipeline) iqInsert(f *Inflight) {
	f.InIQ = true
	p.iq.n++
	for i := 0; i < neededSrcs(f); i++ {
		prod := p.pendingProducer(f, i)
		if prod == nil {
			continue
		}
		if f.waitOn[0] != prod {
			prod.waiters = append(prod.waiters, f)
		}
		f.waitOn[i] = prod
	}
	if f.waitOn[0] != nil || f.waitOn[1] != nil {
		f.iqState = iqWaiting
		return
	}
	p.iqSchedule(f)
}

// iqSchedule places an entry with every operand's ready cycle known:
// straight into the ready list when it can issue by now, otherwise behind
// an evIQReady event at its earliest cycle.
func (p *Pipeline) iqSchedule(f *Inflight) {
	at := f.blockedUntil
	for i := 0; i < neededSrcs(f); i++ {
		if ra := p.operandReadyAt(f, i); ra > at {
			at = ra
		}
	}
	f.iqAt = at
	if at <= p.now {
		p.iqMakeReady(f)
		return
	}
	f.iqState = iqTimed
	p.schedule(at, f, evIQReady)
}

// iqMakeReady inserts f into the ready list at its program-order slot.
func (p *Pipeline) iqMakeReady(f *Inflight) {
	f.iqState = iqReady
	p.iq.ready.Insert(f)
}

// iqTimerFired handles an evIQReady event. The event is stale when the
// entry has since left the IQ or been rescheduled.
func (p *Pipeline) iqTimerFired(f *Inflight, at uint64) {
	if f.InIQ && f.iqState == iqTimed && f.iqAt == at {
		p.iqMakeReady(f)
	}
}

// wakeWaiters runs when prod issues: its consumers' operands now have a
// known ready cycle. Consumers left with no pending producer are
// scheduled; since every latency is at least one cycle, none of them
// joins the ready list select is walking this cycle.
func (p *Pipeline) wakeWaiters(prod *Inflight) {
	for i, c := range prod.waiters {
		prod.waiters[i] = nil
		if c.waitOn[0] == prod {
			c.waitOn[0] = nil
		}
		if c.waitOn[1] == prod {
			c.waitOn[1] = nil
		}
		if c.waitOn[0] == nil && c.waitOn[1] == nil {
			p.iqSchedule(c)
		}
	}
	prod.waiters = prod.waiters[:0]
}

// unwait takes a waiting entry off its producers' waiters lists.
func unwait(f *Inflight) {
	for i, prod := range f.waitOn {
		if prod == nil || (i == 1 && prod == f.waitOn[0]) {
			continue
		}
		ws := prod.waiters
		for j, c := range ws {
			if c == f {
				last := len(ws) - 1
				copy(ws[j:], ws[j+1:])
				ws[last] = nil
				prod.waiters = ws[:last]
				break
			}
		}
	}
	f.waitOn = [2]*Inflight{}
}

// iqRemove takes an unissued entry out of the IQ (WIB drain). A pending
// evIQReady event goes stale on its own.
func (p *Pipeline) iqRemove(f *Inflight) {
	switch f.iqState {
	case iqWaiting:
		unwait(f)
	case iqReady:
		p.iq.ready.Remove(f)
	}
	p.iqLeave(f)
}

// iqLeave clears the IQ membership of an entry that issued or left.
func (p *Pipeline) iqLeave(f *Inflight) {
	f.InIQ = false
	f.iqState = iqOut
	p.iq.n--
}

// iqSquash drops the squashed entries (seq >= fromSeq) from the IQ. The
// ready list is in program order, so they form its tail; waiting victims
// leave their producers' lists, and their own waiters are younger victims
// too, so every victim's list ends up empty. Timed victims' events are
// skipped as squashed.
func (p *Pipeline) iqSquash(victims []*Inflight, fromSeq uint64) {
	for _, f := range victims {
		if !f.InIQ {
			continue
		}
		if f.iqState == iqWaiting {
			unwait(f)
		}
		p.iqLeave(f)
	}
	p.iq.ready.TruncateFrom(fromSeq, nil)
}
