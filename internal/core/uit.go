// Package core implements the paper's contribution: the Long Term Parking
// unit. It contains
//
//   - the Urgent Instruction Table (UIT) and the producer-PC RAT extension
//     that together implement Iterative Backward Dependency Analysis
//     (paper §5.2, after Carlson et al.'s Load Slice Core),
//   - the Parked-bit propagation that force-parks consumers of parked
//     producers (deadlock freedom),
//   - the LTP structure itself: a simple FIFO for Non-Urgent instructions,
//     extended with a ticket CAM for the Non-Ready design (Appendix),
//   - the ROB-proximity wakeup policy for Non-Urgent instructions and the
//     ticket-clear early wakeup for Non-Ready instructions,
//   - the two-level long-latency (hit/miss) predictor,
//   - the timer-based DRAM monitor that power-gates LTP in compute-bound
//     phases (§5.2), and
//   - the oracle classifier used by the limit study (§4).
//
// The unit attaches to internal/pipeline through the pipeline.Parker
// interface.
package core

import "fmt"

// UIT is the Urgent Instruction Table: a PC-tagged, set-associative table
// whose entries mark instructions known to be ancestors of long-latency
// instructions. Presence means Urgent; absence means Non-Urgent. Entries
// are inserted when a long-latency load commits and when urgency
// propagates backwards through the RAT producer-PC extension.
type UIT struct {
	tags    []uint64 // 0 = empty
	lru     []uint64
	sets    int
	setMask uint64 // sets-1; the set count is asserted a power of two
	ways    int
	stamp   uint64
	infMode bool
	infSet  map[uint64]struct{}

	// Statistics.
	Inserts uint64
	Hits    uint64
	Lookups uint64
	Evicts  uint64
}

// uitSets returns the set count and associativity of a finite UIT of
// entries entries (ways <= 0 = 4, capped at entries), or an error
// unless the set count is a positive power of two.
func uitSets(entries, ways int) (int, int, error) {
	if ways <= 0 {
		ways = 4
	}
	if entries < ways {
		ways = entries
	}
	if sets := entries / ways; sets > 0 && sets&(sets-1) == 0 {
		return sets, ways, nil
	}
	return 0, 0, fmt.Errorf("core: UIT set count must be a power of two (%d entries, %d ways)", entries, ways)
}

// NewUIT builds a UIT with the given total entry count (power of two) and
// associativity. entries <= 0 selects the unlimited (oracle-storage) mode
// used to quantify UIT-size sensitivity (§5.6).
func NewUIT(entries, ways int) *UIT {
	if entries <= 0 {
		return &UIT{infMode: true, infSet: make(map[uint64]struct{})}
	}
	sets, ways, err := uitSets(entries, ways)
	if err != nil {
		panic(err.Error()) // configurations are validated at spec admission
	}
	return &UIT{
		tags:    make([]uint64, entries),
		lru:     make([]uint64, entries),
		sets:    sets,
		setMask: uint64(sets - 1),
		ways:    ways,
	}
}

func (u *UIT) setOf(pc uint64) int { return int((pc >> 2) & u.setMask) }

// Insert marks the PC as Urgent.
func (u *UIT) Insert(pc uint64) {
	u.Inserts++
	if u.infMode {
		u.infSet[pc] = struct{}{}
		return
	}
	base := u.setOf(pc) * u.ways
	victim := base
	for i := base; i < base+u.ways; i++ {
		if u.tags[i] == pc {
			u.stamp++
			u.lru[i] = u.stamp
			return
		}
		if u.tags[i] == 0 {
			victim = i
			goto place
		}
		if u.lru[i] < u.lru[victim] {
			victim = i
		}
	}
	if u.tags[victim] != 0 {
		u.Evicts++
	}
place:
	u.stamp++
	u.tags[victim] = pc
	u.lru[victim] = u.stamp
}

// Urgent reports whether the PC is marked Urgent.
func (u *UIT) Urgent(pc uint64) bool {
	u.Lookups++
	if u.infMode {
		_, ok := u.infSet[pc]
		if ok {
			u.Hits++
		}
		return ok
	}
	base := u.setOf(pc) * u.ways
	for i := base; i < base+u.ways; i++ {
		if u.tags[i] == pc {
			u.stamp++
			u.lru[i] = u.stamp
			u.Hits++
			return true
		}
	}
	return false
}

// Len returns the number of valid entries (for tests).
func (u *UIT) Len() int {
	if u.infMode {
		return len(u.infSet)
	}
	n := 0
	for _, t := range u.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
