package pipeline

import "ltp/internal/isa"

// WIB implements the Waiting Instruction Buffer baseline (Lebeck et al.,
// ISCA 2002), one of the techniques the paper compares against: when an
// instruction in the IQ depends on an outstanding cache miss (directly or
// through another waiting instruction), it is drained from the IQ into a
// large, simple buffer and re-inserted when the miss data is about to
// arrive.
//
// The crucial contrast with LTP (paper §6): WIB instructions have already
// been renamed — they hold their physical registers (and LQ/SQ entries)
// the whole time — so WIB relieves only IQ pressure, while LTP's front-end
// parking relieves the register file too. The WIBvsLTP experiment
// quantifies exactly that difference.
type WIB struct {
	entries []Handle
	size    int
	ports   int // drains and re-inserts per cycle, each

	// missThreshold: a source whose value is further away than this many
	// cycles marks the consumer as miss-dependent (beyond the L2 hit
	// latency, as in the original proposal's L1-miss trigger).
	missThreshold uint64

	// Statistics.
	Drains    uint64
	Reinserts uint64
	occSum    uint64
	occCycles uint64
}

// NewWIB builds a WIB with the given capacity and port count.
func NewWIB(size, ports int, missThreshold uint64) *WIB {
	if ports <= 0 {
		ports = 4
	}
	return &WIB{size: size, ports: ports, missThreshold: missThreshold}
}

// Len returns the current occupancy.
func (w *WIB) Len() int { return len(w.entries) }

// AvgOccupancy returns the time-average occupancy.
func (w *WIB) AvgOccupancy() float64 {
	if w.occCycles == 0 {
		return 0
	}
	return float64(w.occSum) / float64(w.occCycles)
}

// inWIB reports whether an instruction currently sits in the WIB.
func inWIB(f *Inflight) bool { return f.wibResident }

// missDependent reports whether f waits (directly or transitively through
// another WIB resident) on an outstanding long-latency value.
func (p *Pipeline) missDependent(f *Inflight, now uint64) bool {
	srcs := [2]isa.Reg{f.U.Src1, f.U.Src2}
	for i, r := range srcs {
		if !r.Valid() {
			continue
		}
		if f.SrcProd[i] != 0 {
			// Parked producer: handled by the LTP, not the WIB.
			continue
		}
		pr := f.SrcPreg[i]
		if pr == NoPReg {
			continue
		}
		ra := p.classRF(r).ReadyAt(pr)
		if ra != neverReady && ra > now+p.wib.missThreshold {
			return true
		}
		if w := f.SrcWriter[i]; w != 0 {
			if prod := p.slab.at(w); inWIB(prod) && !prod.Done {
				return true
			}
		}
	}
	return false
}

// wibDrain moves miss-dependent IQ entries into the WIB (up to the port
// count), oldest first, freeing IQ slots for independent work. The IQ
// keeps no list of all its entries, so the scan walks the ROB's.
func (p *Pipeline) wibDrain(now uint64) {
	moved := 0
	for _, h := range p.rob.entries[p.rob.head:] {
		if moved >= p.wib.ports || len(p.wib.entries) >= p.wib.size {
			break
		}
		f := p.slab.at(h)
		if !f.InIQ || !p.missDependent(f, now) {
			continue
		}
		p.iqRemove(f)
		p.wib.entries = append(p.wib.entries, h)
		f.wibResident = true
		moved++
		p.wib.Drains++
	}
}

// wibReady reports whether every source is available or nearly so.
func (p *Pipeline) wibReady(f *Inflight, now uint64) bool {
	srcs := [2]isa.Reg{f.U.Src1, f.U.Src2}
	for i, r := range srcs {
		if !r.Valid() {
			continue
		}
		pr := f.SrcPreg[i]
		if pr == NoPReg {
			return false
		}
		ra := p.classRF(r).ReadyAt(pr)
		if ra == neverReady || ra > now+2 {
			return false
		}
		_ = i
	}
	return true
}

// wibReinsert moves entries whose data is arriving back into the IQ.
func (p *Pipeline) wibReinsert(now uint64) {
	moved := 0
	wr := p.wib.entries[:0]
	for _, h := range p.wib.entries {
		if f := p.slab.at(h); moved < p.wib.ports && !p.iq.Full() && p.wibReady(f, now) {
			f.wibResident = false
			p.iqInsert(f)
			moved++
			p.wib.Reinserts++
			continue
		}
		wr = append(wr, h)
	}
	p.wib.entries = wr
}

// wibCycle runs the WIB's per-cycle work (called from Cycle when enabled).
func (p *Pipeline) wibCycle(now uint64) {
	p.wibReinsert(now)
	p.wibDrain(now)
	p.wib.occSum += uint64(len(p.wib.entries))
	p.wib.occCycles++
}

// wibSquash drops squashed residents.
func (p *Pipeline) wibSquash(fromSeq uint64) {
	wr := p.wib.entries[:0]
	for _, h := range p.wib.entries {
		if f := p.slab.at(h); f.Seq() >= fromSeq {
			f.wibResident = false
			continue
		}
		wr = append(wr, h)
	}
	p.wib.entries = wr
}
