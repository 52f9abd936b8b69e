package mem

import "fmt"

// DRAM models a DDR3-1600 11-11-11 style main memory at cycle granularity:
// a single channel with multiple banks, per-bank row buffers, and a shared
// data bus. Timing parameters are expressed in CPU cycles (Table 1's core
// runs at 3.4 GHz against DDR3-1600: one memory cycle ≈ 4.25 CPU cycles,
// so CL=tRCD=tRP=11 memory cycles ≈ 47 CPU cycles each).
//
// An access classifies as:
//
//	row-buffer hit      — the bank has the row open:        tCAS
//	row-buffer closed   — bank idle, row must be activated:  tRCD + tCAS
//	row-buffer conflict — another row open: precharge first: tRP + tRCD + tCAS
//
// plus queueing behind earlier requests to the same bank and the burst
// transfer time on the shared bus. The simpler fixed-latency model
// (Config.DRAMLatency) remains available when Banks == 0.
type DRAM struct {
	banks     []dramBank
	busFreeAt uint64

	tCAS    uint64 // column access
	tRCD    uint64 // row activate
	tRP     uint64 // precharge
	tBurst  uint64 // 64B burst on the bus
	static  uint64 // controller + interconnect overhead
	rowBits uint   // log2 of row size in bytes
	bankCnt uint64

	// Statistics.
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64 // closed-row activations
	Conflicts uint64
}

type dramBank struct {
	openRow uint64
	hasRow  bool
	freeAt  uint64
}

// DRAMConfig parameterizes the banked model.
type DRAMConfig struct {
	Banks    int
	RowBytes int
	TCAS     uint64
	TRCD     uint64
	TRP      uint64
	TBurst   uint64
	Static   uint64
}

// DefaultDRAMConfig returns DDR3-1600 11-11-11 at a 3.4 GHz core clock:
// 8 banks, 8 KiB rows, ~47-cycle timing components, 17-cycle bursts, and
// a 60-cycle controller/interconnect overhead so a random (row-miss)
// access lands near the 200-cycle figure the fixed model uses.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Banks:    8,
		RowBytes: 8 << 10,
		TCAS:     47,
		TRCD:     47,
		TRP:      47,
		TBurst:   17,
		Static:   60,
	}
}

// Validate reports a geometry NewDRAM refuses: a bank count or row
// size that is not a positive power of two.
func (cfg DRAMConfig) Validate() error {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		return fmt.Errorf("mem: DRAM bank count must be a positive power of two, not %d", cfg.Banks)
	}
	if cfg.RowBytes <= 0 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		return fmt.Errorf("mem: DRAM row size must be a positive power of two, not %d", cfg.RowBytes)
	}
	return nil
}

// NewDRAM builds the banked model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err.Error()) // configurations are validated at spec admission
	}
	rowBits := uint(0)
	for 1<<rowBits < cfg.RowBytes {
		rowBits++
	}
	return &DRAM{
		banks:   make([]dramBank, cfg.Banks),
		tCAS:    cfg.TCAS,
		tRCD:    cfg.TRCD,
		tRP:     cfg.TRP,
		tBurst:  cfg.TBurst,
		static:  cfg.Static,
		rowBits: rowBits,
		bankCnt: uint64(cfg.Banks),
	}
}

// bankAndRow decomposes a byte address: banks interleave on row-sized
// chunks (row:bank:offset), the common open-page mapping.
func (d *DRAM) bankAndRow(addr uint64) (bank, row uint64) {
	chunk := addr >> d.rowBits
	return chunk % d.bankCnt, chunk / d.bankCnt
}

// Access issues a 64-byte fill request at cycle now and returns the cycle
// its data is fully transferred.
func (d *DRAM) Access(addr, now uint64) uint64 {
	d.Accesses++
	bank, row := d.bankAndRow(addr)
	b := &d.banks[bank]

	start := now + d.static
	if b.freeAt > start {
		start = b.freeAt // queue behind earlier work in this bank
	}

	var access uint64
	switch {
	case b.hasRow && b.openRow == row:
		d.RowHits++
		access = d.tCAS
	case !b.hasRow:
		d.RowMisses++
		access = d.tRCD + d.tCAS
	default:
		d.Conflicts++
		access = d.tRP + d.tRCD + d.tCAS
	}
	b.hasRow = true
	b.openRow = row

	dataReady := start + access
	// The burst occupies the shared bus; serialize transfers.
	busStart := dataReady
	if d.busFreeAt > busStart {
		busStart = d.busFreeAt
	}
	done := busStart + d.tBurst
	d.busFreeAt = done
	b.freeAt = dataReady // the bank can start its next activate after CAS

	return done
}
