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

// waitNode names one entry of a waiters list: the waiting record's
// handle and the source slot (0 or 1) it waits with, as h<<1 | slot.
// The zero node ends a list.
type waitNode uint32

func nodeOf(h Handle, slot int) waitNode { return waitNode(h)<<1 | waitNode(slot) }

func (n waitNode) handle() Handle { return Handle(n >> 1) }

func (n waitNode) slot() int { return int(n & 1) }

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
	if h := f.SrcProd[i]; h != 0 {
		prod := p.slab.at(h)
		if prod.DstPreg == NoPReg {
			return neverReady // producer still parked
		}
		f.SrcPreg[i] = prod.DstPreg
		f.SrcProd[i] = 0
	}
	pr := f.SrcPreg[i]
	if pr == NoPReg {
		panic("pipeline: unresolved source on instruction: " + f.String())
	}
	return p.classRF(r).ReadyAt(pr)
}

// pendingProducer returns the instruction whose issue will make source i
// of f known, or zero when the operand's ready cycle is already known.
func (p *Pipeline) pendingProducer(f *Inflight, i int) Handle {
	if p.operandReadyAt(f, i) != neverReady {
		return 0
	}
	// An unready register is still owned by its allocating writer, which
	// has not committed, so the rename-time writer link is live.
	if h := f.SrcProd[i]; h != 0 {
		return h
	}
	if w := f.SrcWriter[i]; w != 0 && !p.slab.at(w).Issued {
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
		if prod == 0 {
			continue
		}
		if f.waitOn[0] != prod {
			p.appendWaiter(p.slab.at(prod), nodeOf(f.h, i))
		}
		f.waitOn[i] = prod
	}
	if f.waitOn != [2]Handle{} {
		f.iqState = iqWaiting
		return
	}
	p.iqSchedule(f)
}

// appendWaiter adds node n to the tail of prod's waiters list.
func (p *Pipeline) appendWaiter(prod *Inflight, n waitNode) {
	if prod.waitTail == 0 {
		prod.waitHead = n
	} else {
		t := prod.waitTail
		p.slab.at(t.handle()).waitNext[t.slot()] = n
	}
	prod.waitTail = n
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
// scheduled, in the order they joined the list; since every latency is
// at least one cycle, none of them joins the ready list select is
// walking this cycle.
func (p *Pipeline) wakeWaiters(prod *Inflight) {
	for n := prod.waitHead; n != 0; {
		c := p.slab.at(n.handle())
		next := c.waitNext[n.slot()]
		c.waitNext[n.slot()] = 0
		if c.waitOn[0] == prod.h {
			c.waitOn[0] = 0
		}
		if c.waitOn[1] == prod.h {
			c.waitOn[1] = 0
		}
		if c.waitOn == [2]Handle{} {
			p.iqSchedule(c)
		}
		n = next
	}
	prod.waitHead, prod.waitTail = 0, 0
}

// unwait takes a waiting entry off its producers' waiters lists.
func (p *Pipeline) unwait(f *Inflight) {
	for i, h := range f.waitOn {
		if h == 0 || (i == 1 && h == f.waitOn[0]) {
			continue
		}
		prod := p.slab.at(h)
		me := nodeOf(f.h, i)
		var prev waitNode
		for n := prod.waitHead; n != 0; n = p.slab.at(n.handle()).waitNext[n.slot()] {
			if n != me {
				prev = n
				continue
			}
			next := f.waitNext[i]
			if prev == 0 {
				prod.waitHead = next
			} else {
				p.slab.at(prev.handle()).waitNext[prev.slot()] = next
			}
			if prod.waitTail == me {
				prod.waitTail = prev
			}
			break
		}
	}
	f.waitOn = [2]Handle{}
	f.waitNext = [2]waitNode{}
}

// iqRemove takes an unissued entry out of the IQ (WIB drain). A pending
// evIQReady event goes stale on its own.
func (p *Pipeline) iqRemove(f *Inflight) {
	switch f.iqState {
	case iqWaiting:
		p.unwait(f)
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
func (p *Pipeline) iqSquash(victims []Handle, fromSeq uint64) {
	for _, h := range victims {
		f := p.slab.at(h)
		if !f.InIQ {
			continue
		}
		if f.iqState == iqWaiting {
			p.unwait(f)
		}
		p.iqLeave(f)
	}
	p.iq.ready.TruncateFrom(fromSeq, nil)
}
