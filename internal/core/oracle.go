package core

import (
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/prog"
)

// OracleFlag bits describe the limit study's perfect classification for
// one dynamic instruction.
type OracleFlag uint8

const (
	// FlagLongLat marks an instruction whose execution is long-latency
	// (load served beyond the L2, divide, square root).
	FlagLongLat OracleFlag = 1 << iota
	// FlagUrgent marks an ancestor (within a ROB-sized window) of a
	// long-latency instruction, including the instruction itself.
	FlagUrgent
	// FlagNonReady marks a descendant (within a ROB-sized window) of a
	// long-latency instruction.
	FlagNonReady
)

// Oracle holds per-dynamic-instruction classification flags computed by a
// trace pre-pass (§4.1: "an oracle to predict long-latency instructions"
// with "perfect instruction classification"). The pipeline's emulator run
// is deterministic, so sequence numbers line up exactly.
type Oracle struct {
	flags []OracleFlag
}

// Flags returns the classification for the dynamic instruction seq
// (instructions beyond the pre-pass budget report zero flags).
func (o *Oracle) Flags(seq uint64) OracleFlag {
	if seq >= uint64(len(o.flags)) {
		return 0
	}
	return o.flags[seq]
}

// Len returns the number of classified instructions.
func (o *Oracle) Len() int { return len(o.flags) }

// oracleEntry is one window slot of the streaming dependence analysis.
type oracleEntry struct {
	dst      isa.Reg
	src      [2]int64 // absolute stream index of each source's writer (-1 none)
	ll       bool
	urgent   bool
	nonReady bool
}

// BuildOracle runs the program's µop stream through the timing-free walk
// of a cold hierarchy (Hierarchy.Warm, the warm pass's walk, prefetcher
// included so prefetch-friendly streams are not misclassified) and a
// sliding-window dependence analysis to produce perfect Urgent /
// Non-Ready / long-latency flags for the first `budget` dynamic
// instructions. window bounds how far ancestry/descendance propagates
// (use the ROB size: instructions further apart can never be in flight
// together).
func BuildOracle(p *prog.Program, budget int, hcfg mem.Config, window int) *Oracle {
	if window <= 0 {
		window = 256
	}
	em := prog.NewEmulator(p)
	h := mem.NewHierarchy(hcfg)

	flags := make([]OracleFlag, 0, budget)
	ring := make([]oracleEntry, window)
	var lastWriter [isa.NumArchRegs]int64
	for i := range lastWriter {
		lastWriter[i] = -1
	}

	var u isa.Uop
	// markAncestors walks the dependence tree backwards within the window.
	var stack []int64
	markAncestors := func(from int64, head int64) {
		stack = stack[:0]
		stack = append(stack, from)
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if idx < 0 || head-idx >= int64(window) {
				continue
			}
			e := &ring[idx%int64(window)]
			if e.urgent {
				continue
			}
			e.urgent = true
			stack = append(stack, e.src[0], e.src[1])
		}
	}

	total := int64(0)
	for total < int64(budget) {
		if !em.Next(&u) {
			break
		}
		idx := int64(u.Seq)
		// Retire the slot this instruction overwrites.
		if idx >= int64(window) {
			old := &ring[idx%int64(window)]
			flags = append(flags, packFlags(old))
		}

		e := oracleEntry{dst: u.Dst, src: [2]int64{-1, -1}}
		if u.Src1.Valid() {
			e.src[0] = lastWriter[u.Src1]
		}
		if u.Src2.Valid() {
			e.src[1] = lastWriter[u.Src2]
		}

		switch {
		case u.Op == isa.Load:
			e.ll = h.Warm(u.PC, u.Addr, false) >= mem.LvlL3
		case u.Op == isa.Store:
			h.Warm(u.PC, u.Addr, true)
		case u.Op.IsLongLatencyALU():
			e.ll = true
		}

		// Forward readiness: a descendant of an in-window LL instruction
		// (or of another Non-Ready instruction) is Non-Ready.
		for _, s := range e.src {
			if s < 0 || idx-s >= int64(window) {
				continue
			}
			ps := &ring[s%int64(window)]
			if ps.ll || ps.nonReady {
				e.nonReady = true
			}
		}

		ring[idx%int64(window)] = e
		if e.ll {
			markAncestors(idx, idx)
		}
		if u.Dst.Valid() {
			lastWriter[u.Dst] = idx
		}
		total++
	}

	// Flush the remaining window.
	start := total - int64(window)
	if start < 0 {
		start = 0
	}
	for idx := start; idx < total; idx++ {
		flags = append(flags, packFlags(&ring[idx%int64(window)]))
	}
	return &Oracle{flags: flags}
}

func packFlags(e *oracleEntry) OracleFlag {
	var f OracleFlag
	if e.ll {
		f |= FlagLongLat | FlagUrgent
	}
	if e.urgent {
		f |= FlagUrgent
	}
	if e.nonReady {
		f |= FlagNonReady
	}
	return f
}
