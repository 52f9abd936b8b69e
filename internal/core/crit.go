package core

import "fmt"

// ChampSim-style criticality-table identification (IdentCrit): an
// alternative to the paper's UIT + LL-predictor policy, modeled on the
// criticality predictor used in ChampSim-based prefetch research (a
// load-criticality table trained by whether an instruction blocked
// retirement, plus a per-PC miss predictor with epoch-rotated hit
// counts). Under IdentCrit:
//
//   - Urgent = the PC's criticality counter is saturated positive: the
//     instruction (or a producer feeding one) has repeatedly finished
//     right at the commit point, i.e. the ROB drained waiting for it.
//   - PredLL = the PC's miss history predicts a long-latency access:
//     few hits in the last completed epoch of accesses.
//
// Both tables are trained by outcomes (commit-blocking, service level),
// not by the paper's backward dependence walk alone — though urgency
// still propagates one producer hop per encounter, exactly like the UIT
// path, so address-generation chains feeding critical misses are not
// parked and serialized.

// IdentPolicy selects how the LTP identifies urgent and long-latency
// instructions.
type IdentPolicy uint8

const (
	// IdentPaper is the paper's policy: UIT seeding at commit plus the
	// per-PC long-latency predictor (§5.2).
	IdentPaper IdentPolicy = iota
	// IdentCrit is the ChampSim-style criticality-table policy.
	IdentCrit
)

var identNames = map[IdentPolicy]string{
	IdentPaper: "paper", IdentCrit: "crit",
}

// String returns the policy name ("paper" or "crit").
func (i IdentPolicy) String() string { return identNames[i] }

// ParseIdent parses an identification-policy name; the empty string
// means IdentPaper.
func ParseIdent(s string) (IdentPolicy, bool) {
	switch s {
	case "", "paper":
		return IdentPaper, true
	case "crit":
		return IdentCrit, true
	}
	return IdentPaper, false
}

// ParseMode parses an LTP mode name as the paper's legends spell it
// ("NU", "NR", "NR+NU" or "NRNU"); the empty string means ModeNU.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "", "NU":
		return ModeNU, true
	case "NR":
		return ModeNR, true
	case "NR+NU", "NRNU":
		return ModeNRNU, true
	}
	return ModeNU, false
}

const (
	// critEpoch is the accesses per miss-history epoch.
	critEpoch = 8
	// critLLMaxHits is the most last-epoch hits a PC may have and still
	// be predicted long-latency (2 of 8 = a 25% hit rate).
	critLLMaxHits = 2
	// critUrgentAt is the criticality counter value at which a PC
	// becomes Urgent.
	critUrgentAt = 2
	// critMin/critMax bound the saturating criticality counter.
	critMin = -8
	critMax = 7
	// critCommitSlack is how many cycles before commit an instruction
	// may have finished and still count as having blocked retirement.
	critCommitSlack = 2
)

// critEntry is one direct-mapped criticality-table entry.
type critEntry struct {
	pc       uint64
	crit     int8  // saturating [critMin, critMax]; >= critUrgentAt = urgent
	prevHits uint8 // hits in the last completed epoch
	currHits uint8 // hits so far in the current epoch
	accesses uint8 // accesses so far in the current epoch
	epochs   uint8 // completed epochs (saturating; 0 = no prediction yet)
	valid    bool
}

// CritTable is the PC-indexed criticality + miss-history table backing
// IdentCrit.
type CritTable struct {
	entries []critEntry
	mask    uint64
}

// DefaultCritEntries is the baseline criticality-table size.
const DefaultCritEntries = 1024

// checkCritEntries errors unless a criticality-table size is a power
// of two (<=0 selects DefaultCritEntries, which is).
func checkCritEntries(entries int) error {
	if entries > 0 && entries&(entries-1) != 0 {
		return fmt.Errorf("core: crit table size must be a power of two, not %d", entries)
	}
	return nil
}

// NewCritTable builds a direct-mapped table with the given power-of-two
// entry count (<=0 = DefaultCritEntries).
func NewCritTable(entries int) *CritTable {
	if entries <= 0 {
		entries = DefaultCritEntries
	}
	if err := checkCritEntries(entries); err != nil {
		panic(err.Error()) // configurations are validated at spec admission
	}
	return &CritTable{
		entries: make([]critEntry, entries),
		mask:    uint64(entries - 1),
	}
}

// slot returns the entry for pc, resetting it on a tag mismatch (the
// direct-mapped replacement policy: last toucher wins).
func (t *CritTable) slot(pc uint64) *critEntry {
	e := &t.entries[(pc>>2)&t.mask]
	if !e.valid || e.pc != pc {
		*e = critEntry{pc: pc, valid: true}
	}
	return e
}

// peek returns the entry for pc only if it is currently tracking pc.
func (t *CritTable) peek(pc uint64) *critEntry {
	e := &t.entries[(pc>>2)&t.mask]
	if e.valid && e.pc == pc {
		return e
	}
	return nil
}

// Urgent reports whether pc's criticality counter marks it urgent.
func (t *CritTable) Urgent(pc uint64) bool {
	e := t.peek(pc)
	return e != nil && e.crit >= critUrgentAt
}

// PredictLL predicts whether pc's next access is long-latency from its
// epoch-rotated hit history: no completed epoch yet means no prediction
// (false), otherwise few last-epoch hits predict a miss.
func (t *CritTable) PredictLL(pc uint64) bool {
	e := t.peek(pc)
	return e != nil && e.epochs > 0 && e.prevHits <= critLLMaxHits
}

// TrainCrit moves pc's criticality counter toward (critical=true) or
// away from (false) urgency.
func (t *CritTable) TrainCrit(pc uint64, critical bool) {
	e := t.slot(pc)
	if critical {
		if e.crit < critMax {
			e.crit++
		}
	} else if e.crit > critMin {
		e.crit--
	}
}

// Bump forces pc toward urgency by a full step to the urgency floor —
// the backward-propagation analog of a UIT insert: a producer feeding
// an urgent instruction becomes urgent the next time it is seen.
func (t *CritTable) Bump(pc uint64) {
	e := t.slot(pc)
	if e.crit < critUrgentAt {
		e.crit = critUrgentAt
	} else if e.crit < critMax {
		e.crit++
	}
}

// TrainHit records one access's service outcome (hit = not
// long-latency) into pc's epoch history.
func (t *CritTable) TrainHit(pc uint64, hit bool) {
	e := t.slot(pc)
	e.accesses++
	if hit {
		e.currHits++
	}
	if e.accesses >= critEpoch {
		e.prevHits = e.currHits
		e.currHits, e.accesses = 0, 0
		if e.epochs < 255 {
			e.epochs++
		}
	}
}

// Len returns the number of valid entries (statistics).
func (t *CritTable) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the table.
func (t *CritTable) Clone() *CritTable {
	cp := *t
	cp.entries = append([]critEntry(nil), t.entries...)
	return &cp
}
