// Package pipeline implements the cycle-level out-of-order core the LTP
// mechanism plugs into: an 8-wide fetch/decode/rename/commit, 6-wide issue
// machine with a ROB, unified instruction queue (IQ) with wakeup+select,
// physical register files with free lists, load/store queues with
// store→load forwarding and store-set memory dependence prediction, and
// MSHR-limited caches (internal/mem). It corresponds to the gem5 O3
// configuration in the paper's Table 1 (see DESIGN.md §2 for the
// substitution notes).
//
// The LTP itself lives in internal/core and attaches through the Parker
// interface; the pipeline knows only that some instructions may be parked
// at rename and re-injected later.
package pipeline

import (
	"errors"
	"fmt"

	"ltp/internal/bpred"
	"ltp/internal/mem"
)

// Inf is the sentinel size for "effectively unlimited" structures in the
// limit study. It is far larger than the 256-entry ROB, so an Inf-sized
// structure can never be the binding constraint, while remaining small
// enough to preallocate.
const Inf = 8192

// MemDepMode selects the memory dependence speculation policy.
type MemDepMode uint8

const (
	// MemDepStoreSets speculates loads past unresolved stores, detects
	// violations when store addresses resolve, squashes and trains a
	// store-set predictor (the realistic default).
	MemDepStoreSets MemDepMode = iota
	// MemDepConservative makes loads wait for all older store addresses.
	MemDepConservative
	// MemDepOracle lets loads bypass exactly the stores they do not
	// overlap with (perfect disambiguation; no violations).
	MemDepOracle
)

// Config describes the core. The zero value is not usable; start from
// DefaultConfig (the paper's Table 1 baseline).
type Config struct {
	// Widths (Table 1: F/D/R/I/W/C = 8/8/8/6/8/8).
	FetchWidth  int
	DecodeWidth int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// Structure sizes. Register counts are *available* (beyond
	// architectural) registers, matching the paper's footnote 4.
	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int
	IntRegs int
	FPRegs  int

	// Functional units.
	NumALU  int
	NumMul  int
	NumDiv  int
	NumFP   int
	NumFDiv int
	NumMem  int

	// FrontEndDepth is the fetch→rename latency in cycles.
	FrontEndDepth uint64

	// Memory dependence policy.
	MemDep MemDepMode

	// LLThreshold: a load whose latency exceeds this many cycles is a
	// long-latency instruction (the paper uses "mostly L3 and DRAM
	// accesses", i.e. beyond the L2 latency).
	LLThreshold uint64

	// ParkReserveRegs/ParkReserveIQ/ParkReserveLQ/ParkReserveSQ entries
	// are reserved for instructions leaving the LTP (deadlock avoidance,
	// paper §5.4).
	ParkReserveRegs int
	ParkReserveIQ   int
	ParkReserveLQ   int
	ParkReserveSQ   int

	// LateLSQAlloc delays LQ/SQ allocation for parked memory operations
	// until they leave LTP (limit-study only; the realistic design
	// allocates LQ/SQ at dispatch, paper §4.3).
	LateLSQAlloc bool

	// WIBSize enables the Waiting Instruction Buffer comparison baseline
	// (Lebeck et al.) with the given capacity (0 = disabled). WIBPorts
	// bounds drains/re-inserts per cycle (default 4).
	WIBSize  int
	WIBPorts int

	// BranchPred names the branch predictor implementation from the
	// internal/bpred registry ("" = the gshare default).
	BranchPred string

	// Hier is the cache hierarchy configuration.
	Hier mem.Config

	// WatchdogCycles aborts the simulation if no instruction commits for
	// this many cycles (deadlock detector). <=0 disables.
	WatchdogCycles uint64
}

// DefaultConfig returns the Table 1 baseline: 3.4 GHz 8-wide core,
// ROB/IQ/LQ/SQ = 256/64/64/32, 128 int + 128 fp registers.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		DecodeWidth: 8,
		RenameWidth: 8,
		IssueWidth:  6,
		CommitWidth: 8,

		ROBSize: 256,
		IQSize:  64,
		LQSize:  64,
		SQSize:  32,
		IntRegs: 128,
		FPRegs:  128,

		NumALU:  4,
		NumMul:  1,
		NumDiv:  1,
		NumFP:   2,
		NumFDiv: 1,
		NumMem:  2,

		FrontEndDepth: 3,
		MemDep:        MemDepStoreSets,
		LLThreshold:   12, // beyond L2 latency (Table 1: L2 = 12 cycles)

		ParkReserveRegs: 8,
		ParkReserveIQ:   4,
		ParkReserveLQ:   4,
		ParkReserveSQ:   4,

		Hier: mem.DefaultConfig(),

		WatchdogCycles: 500_000,
	}
}

// Validate reports the first constraint the configuration breaks: the
// structure rules, the branch-predictor name, or a cache or DRAM
// geometry the hierarchy refuses (mem.Config.Validate). Run specs are
// checked with it at admission, so a bad configuration is an error;
// New and NewShared still panic on one, as a guard against
// programming errors.
func (c *Config) Validate() error {
	if err := c.checkStructure(); err != nil {
		return err
	}
	if _, err := bpred.Lookup(c.BranchPred); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return c.Hier.Validate()
}

// checkStructure is Validate's structure rules alone, for constructors
// handed a predictor and a hierarchy instead of building them.
func (c *Config) checkStructure() error {
	switch {
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.RenameWidth <= 0 ||
		c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return errors.New("pipeline: widths must be positive")
	case c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0:
		return errors.New("pipeline: structure sizes must be positive")
	case c.IntRegs < 8 || c.FPRegs < 8:
		return errors.New("pipeline: too few available registers")
	case c.NumALU <= 0 || c.NumMem <= 0:
		return errors.New("pipeline: need at least one ALU and one memory port")
	}
	return nil
}
