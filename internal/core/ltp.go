package core

import (
	"fmt"
	"math/bits"
	"sort"

	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/stats"
)

// Mode selects which instruction classes the LTP parks.
type Mode uint8

const (
	// ModeOff parks nothing (baseline; prefer pipeline.NullParker).
	ModeOff Mode = iota
	// ModeNU parks Non-Urgent instructions (the paper's recommended,
	// queue-based design).
	ModeNU
	// ModeNR parks Non-Ready instructions (ticket-based, Appendix).
	ModeNR
	// ModeNRNU parks instructions that are Non-Urgent or Non-Ready.
	ModeNRNU
)

var modeNames = map[Mode]string{
	ModeOff: "off", ModeNU: "NU", ModeNR: "NR", ModeNRNU: "NR+NU",
}

// String returns the mode name as used in the paper's legends.
func (m Mode) String() string { return modeNames[m] }

// ParksNU reports whether the mode parks Non-Urgent instructions.
func (m Mode) ParksNU() bool { return m == ModeNU || m == ModeNRNU }

// ParksNR reports whether the mode parks Non-Ready instructions.
func (m Mode) ParksNR() bool { return m == ModeNR || m == ModeNRNU }

// WakePolicy selects the Non-Urgent wakeup rule. The paper's design is
// ROB proximity (§3.2); the alternatives exist for ablation studies that
// quantify why that choice matters.
type WakePolicy uint8

const (
	// WakeROBProximity wakes instructions between the ROB head and the
	// second in-flight long-latency instruction (the paper's policy).
	WakeROBProximity WakePolicy = iota
	// WakeEager wakes parked instructions as soon as ports allow,
	// regardless of ROB position (defeats late allocation).
	WakeEager
	// WakeLazy wakes only instructions at the immediate ROB head region
	// (maximizes parking time; risks commit-burst stalls).
	WakeLazy
)

var wakeNames = map[WakePolicy]string{
	WakeROBProximity: "rob-proximity", WakeEager: "eager", WakeLazy: "lazy",
}

// String returns the policy name.
func (w WakePolicy) String() string { return wakeNames[w] }

// Config configures the Long Term Parking unit.
type Config struct {
	Mode Mode

	// Ident selects the identification policy: the paper's UIT +
	// LL-predictor design (IdentPaper, default) or the ChampSim-style
	// criticality-table alternative (IdentCrit).
	Ident IdentPolicy

	// CritEntries sizes the IdentCrit criticality table (<=0 =
	// DefaultCritEntries; power of two).
	CritEntries int

	// Wake selects the Non-Urgent wakeup policy (default: ROB proximity,
	// the paper's design; others are ablations).
	Wake WakePolicy

	// DisableUrgentEscape force-parks Urgent consumers of parked
	// producers (strict parked-bit semantics). This is an ablation: it
	// reproduces the loop-carried parked-bit cascade that serializes
	// misses (see ShouldPark).
	DisableUrgentEscape bool

	// Entries is the LTP capacity (<=0 = unlimited, the limit study).
	Entries int
	// Ports is the per-cycle enqueue and dequeue bandwidth, each
	// (<=0 = unlimited). The paper's realistic design uses 128 entries
	// with 4 ports.
	Ports int

	// UITEntries sizes the Urgent Instruction Table (<=0 = unlimited).
	UITEntries int
	// UITWays is the UIT associativity (default 4).
	UITWays int

	// Tickets bounds concurrent long-latency tracking for the Non-Ready
	// design (at most MaxTickets, which 0 also means; Fig. 11 sweeps
	// 4..128).
	Tickets int

	// Oracle, when non-nil, supplies perfect per-instruction
	// classification (the limit study, §4.1). The UIT and LL predictor
	// are bypassed.
	Oracle *Oracle

	// MonitorForceOn disables the DRAM-timer power gating, keeping LTP
	// always enabled.
	MonitorForceOn bool

	// EarlyWakeupLead is the cycles of advance notice the phased L2/L3
	// tags give ticket clearing (defaults to the hierarchy's setting).
	EarlyWakeupLead uint64
}

// MaxTickets is the most long-latency tickets the Non-Ready design
// tracks: one bit each in a pipeline.TicketMask (Appendix).
const MaxTickets = 128

// Validate reports a configuration New cannot honour: a ticket count
// outside [0, MaxTickets], a finite UIT whose set count is not a power
// of two, or a criticality-table size that is not a power of two.
func (c Config) Validate() error {
	if c.Tickets < 0 || c.Tickets > MaxTickets {
		return fmt.Errorf("core: %d tickets out of range [0, %d]", c.Tickets, MaxTickets)
	}
	if c.UITEntries > 0 {
		if _, _, err := uitSets(c.UITEntries, c.UITWays); err != nil {
			return err
		}
	}
	return checkCritEntries(c.CritEntries)
}

// DefaultConfig returns the paper's realistic design: Non-Urgent-only,
// 128-entry 4-port queue, 256-entry UIT.
func DefaultConfig() Config {
	return Config{
		Mode:       ModeNU,
		Entries:    128,
		Ports:      4,
		UITEntries: 256,
		UITWays:    4,
		Tickets:    64,
	}
}

// ratExt is the per-architectural-register RAT extension (Fig. 9): the
// producer's PC for backward urgency propagation, the ticket set for
// forward readiness tracking, and the writer's seq for squash rollback.
type ratExt struct {
	producerPC  uint64
	producerSeq uint64
	tickets     pipeline.TicketMask
	valid       bool
}

// parkedStore is a parked store's seq and address; LTP.parkedStoreList
// lists them in program order.
type parkedStore struct {
	seq, addr uint64
}

// ticketClear is a scheduled ticket broadcast (early wakeup).
type ticketClear struct {
	at       uint64
	ticket   int
	ownerSeq uint64
}

// LTP is the Long Term Parking unit; it implements pipeline.Parker.
type LTP struct {
	cfg     Config
	uit     *UIT
	llpred  *LLPredictor
	crit    *CritTable // IdentCrit tables (nil under IdentPaper)
	monitor *DRAMMonitor

	ext [isa.NumArchRegs]ratExt

	// queue holds the parked instructions in program order. Like every
	// list here it names them by handle; hooks that must look at a
	// listed instruction resolve it through the pipeline.
	queue pipeline.SeqList

	// Ticket wakeup state (NR modes only; see wakeNR). ticketWaiters[t]
	// lists, in program order, the parked instructions whose mask holds
	// ticket t — a clear visits only them. The ticket-free parked
	// instructions sit in freeUrgent or freeNonUrgent, program order.
	ticketWaiters []pipeline.SeqList
	freeUrgent    pipeline.SeqList
	freeNonUrgent pipeline.SeqList

	// ownTicket maps an in-flight seq to the ticket it owns (set on the
	// Inflight via ownTickets map to keep pipeline.Inflight lean).
	ownTicket map[uint64]int

	ticketOwner   []uint64 // seq of owning instruction; ^0 = free
	pendingClears []ticketClear
	nextClearAt   uint64 // earliest pendingClears cycle
	clearedAt     uint64 // last cycle fireTicketClears applied due clears

	// parkedStoreList lists the parked stores in program order;
	// parkedStoreAddrs counts them per word address, so the common
	// no-conflict check is one lookup.
	parkedStoreList  []parkedStore
	parkedStoreAddrs map[uint64]int32

	parkedLoads int
	parkedRegs  int

	enqThisCycle int
	deqThisCycle int

	// pressureMark is PressureWakes when this cycle's Wake began, so
	// SkipCycles can repeat the cycle's pressure count.
	pressureMark uint64

	// Functional warm-up bookkeeping (WarmObserve/WarmFinish).
	warmInsts    uint64
	warmLastDRAM uint64
	warmSawDRAM  bool

	// Statistics.
	OccInsts, OccRegs   stats.Accumulator
	OccLoads, OccStores stats.Accumulator
	ParkedTotal         uint64
	WokenTotal          uint64
	PressureWakes       uint64
	ForcedParks         uint64 // parked because a source was parked (P-bit)
	ClassUrgent         uint64
	ClassNonReady       uint64
	TicketsExhausted    uint64
	Enqueues, Dequeues  uint64
}

// New builds an LTP unit for a hierarchy with the given DRAM latency.
func New(cfg Config, dramLatency uint64, earlyLead uint64) *LTP {
	if cfg.Tickets <= 0 || cfg.Tickets > MaxTickets {
		cfg.Tickets = MaxTickets
	}
	if cfg.EarlyWakeupLead == 0 {
		cfg.EarlyWakeupLead = earlyLead
	}
	l := &LTP{
		cfg:              cfg,
		uit:              NewUIT(cfg.UITEntries, cfg.UITWays),
		llpred:           DefaultLLPredictor(),
		monitor:          NewDRAMMonitor(dramLatency, cfg.MonitorForceOn),
		ownTicket:        make(map[uint64]int),
		ticketOwner:      make([]uint64, cfg.Tickets),
		parkedStoreAddrs: make(map[uint64]int32),
	}
	if cfg.Mode.ParksNR() {
		l.ticketWaiters = make([]pipeline.SeqList, cfg.Tickets)
	}
	for i := range l.ticketOwner {
		l.ticketOwner[i] = ^uint64(0)
	}
	if cfg.Ident == IdentCrit {
		l.crit = NewCritTable(cfg.CritEntries)
	}
	return l
}

// Cfg returns the configuration.
func (l *LTP) Cfg() Config { return l.cfg }

// UITTable exposes the UIT (tests, examples).
func (l *LTP) UITTable() *UIT { return l.uit }

// Urgent reports whether the identification policy's table marks pc
// urgent: the criticality table under IdentCrit, the UIT otherwise.
func (l *LTP) Urgent(pc uint64) bool {
	if l.cfg.Ident == IdentCrit {
		return l.crit.Urgent(pc)
	}
	return l.uit.Urgent(pc)
}

// Monitor exposes the DRAM-timer monitor.
func (l *LTP) Monitor() *DRAMMonitor { return l.monitor }

// Predictor exposes the long-latency predictor.
func (l *LTP) Predictor() *LLPredictor { return l.llpred }

// ParkedCount implements pipeline.Parker.
func (l *LTP) ParkedCount() int { return l.queue.Len() }

// CheckInvariants validates the parking bookkeeping;
// pipeline.CheckInvariants calls it between cycles. Every list names
// live records of p with their seqs. The queue holds parked instructions
// in program order and agrees with the occupancy counters and the parked
// store list. Under the NR modes each parked instruction sits on exactly
// the ticket waiter lists its Tickets mask names, and on the free list
// matching its urgency if and only if the mask is empty; the lists hold
// nothing else.
func (l *LTP) CheckInvariants(p *pipeline.Pipeline) error {
	loads, stores, regs := 0, 0, 0
	var storeList []parkedStore
	parked := l.queue.Items()
	for i, r := range parked {
		if err := p.CheckRef(r, "LTP queue"); err != nil {
			return err
		}
		f := p.Rec(r.H)
		if i > 0 && parked[i-1].Seq >= r.Seq {
			return fmt.Errorf("LTP queue out of order at %d", i)
		}
		if !f.Parked || f.Squashed {
			return fmt.Errorf("LTP queue holds an instruction that is not parked: %s", f)
		}
		if f.IsLoad() {
			loads++
		}
		if f.IsStore() {
			stores++
			storeList = append(storeList, parkedStore{f.Seq(), f.U.Addr})
		}
		if f.HasDst() {
			regs++
		}
	}
	if loads != l.parkedLoads || stores != len(l.parkedStoreList) || regs != l.parkedRegs {
		return fmt.Errorf("LTP counts %d/%d/%d loads/stores/regs, queue holds %d/%d/%d",
			l.parkedLoads, len(l.parkedStoreList), l.parkedRegs, loads, stores, regs)
	}
	perAddr := map[uint64]int32{}
	for i, s := range storeList {
		if l.parkedStoreList[i] != s {
			return fmt.Errorf("parked store list holds %+v at %d, queue has %+v", l.parkedStoreList[i], i, s)
		}
		perAddr[s.addr]++
	}
	if len(perAddr) != len(l.parkedStoreAddrs) {
		return fmt.Errorf("parked store counts cover %d addresses, queue %d", len(l.parkedStoreAddrs), len(perAddr))
	}
	for a, n := range perAddr {
		if l.parkedStoreAddrs[a] != n {
			return fmt.Errorf("parked store count for %#x is %d, queue holds %d", a, l.parkedStoreAddrs[a], n)
		}
	}
	if l.ticketWaiters == nil {
		return nil
	}
	waits := map[pipeline.Handle]pipeline.TicketMask{}
	free := map[pipeline.Handle]bool{}
	for t := range l.ticketWaiters {
		ws := l.ticketWaiters[t].Items()
		for i, r := range ws {
			if err := p.CheckRef(r, fmt.Sprintf("ticket %d waiter list", t)); err != nil {
				return err
			}
			if i > 0 && ws[i-1].Seq >= r.Seq {
				return fmt.Errorf("ticket %d waiter list out of order at %d", t, i)
			}
			m := waits[r.H]
			m.Set(t)
			waits[r.H] = m
		}
	}
	for urgent, fl := range map[bool][]pipeline.Ref{true: l.freeUrgent.Items(), false: l.freeNonUrgent.Items()} {
		for i, r := range fl {
			if err := p.CheckRef(r, "LTP free list"); err != nil {
				return err
			}
			if i > 0 && fl[i-1].Seq >= r.Seq {
				return fmt.Errorf("LTP free list out of order at %d", i)
			}
			if f := p.Rec(r.H); free[r.H] || f.Urgent != urgent {
				return fmt.Errorf("LTP free lists misfile %s", f)
			}
			free[r.H] = true
		}
	}
	for _, r := range parked {
		f := p.Rec(r.H)
		if waits[r.H] != f.Tickets {
			return fmt.Errorf("parked %s holds tickets %x but waits on %x", f, f.Tickets, waits[r.H])
		}
		if free[r.H] != f.Tickets.Empty() {
			return fmt.Errorf("parked %s (tickets %x) misfiled on the free lists", f, f.Tickets)
		}
		delete(waits, r.H)
		delete(free, r.H)
	}
	if len(waits) > 0 || len(free) > 0 {
		return fmt.Errorf("LTP wakeup lists hold %d instructions that are not parked", len(waits)+len(free))
	}
	return nil
}

// freeTicket returns a free ticket index or -1.
func (l *LTP) freeTicket() int {
	for i, s := range l.ticketOwner {
		if s == ^uint64(0) {
			return i
		}
	}
	return -1
}

// OnRename implements pipeline.Parker: classify the instruction and update
// the RAT extensions.
func (l *LTP) OnRename(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if l.cfg.Oracle != nil {
		l.classifyOracle(f)
	} else {
		l.classifyRealistic(f, now)
	}
	if f.Urgent {
		l.ClassUrgent++
	}
	if f.NonReady {
		l.ClassNonReady++
	}
	l.updateExt(f)
}

// classifyOracle applies the limit study's perfect classification: the
// oracle identifies long-latency instructions and Urgent ancestors exactly
// (§4.1's "oracle to predict long-latency instructions"). Readiness still
// flows through tickets so wakeup *timing* stays physical; the oracle only
// replaces the identification of long-latency producers.
func (l *LTP) classifyOracle(f *pipeline.Inflight) {
	fl := l.cfg.Oracle.Flags(f.Seq())
	f.Urgent = fl&FlagUrgent != 0
	f.PredLL = fl&FlagLongLat != 0
	l.inheritTickets(f)
	if l.cfg.Mode.ParksNR() && f.PredLL {
		l.allocateOwnTicket(f)
	}
	f.NonReady = !f.Tickets.Empty()
}

// classifyRealistic runs the identification policy (UIT lookup +
// LL predictor under IdentPaper, criticality tables under IdentCrit),
// backward urgency propagation, and ticket inheritance (§5.2 and
// Appendix).
func (l *LTP) classifyRealistic(f *pipeline.Inflight, now uint64) {
	f.Urgent = l.Urgent(f.U.PC)
	if f.Urgent {
		// Backward propagation: the producers of an Urgent instruction's
		// sources are Urgent too (one dependence edge per iteration).
		for _, r := range [2]isa.Reg{f.U.Src1, f.U.Src2} {
			if r.Valid() && l.ext[r].valid && l.ext[r].producerPC != 0 {
				if l.cfg.Ident == IdentCrit {
					l.crit.Bump(l.ext[r].producerPC)
				} else {
					l.uit.Insert(l.ext[r].producerPC)
				}
			}
		}
	}
	if f.U.Op == isa.Load {
		if l.cfg.Ident == IdentCrit {
			f.PredLL = l.crit.PredictLL(f.U.PC)
		} else {
			f.PredLL = l.llpred.Predict(f.U.PC)
		}
	} else if f.U.Op.IsLongLatencyALU() {
		f.PredLL = true
	}
	l.inheritTickets(f)
	if l.cfg.Mode.ParksNR() && f.PredLL {
		l.allocateOwnTicket(f)
	}
	f.NonReady = !f.Tickets.Empty()
}

// inheritTickets unions the live tickets of the instruction's sources.
func (l *LTP) inheritTickets(f *pipeline.Inflight) {
	if !l.cfg.Mode.ParksNR() {
		return
	}
	for _, r := range [2]isa.Reg{f.U.Src1, f.U.Src2} {
		if r.Valid() && l.ext[r].valid {
			f.Tickets.Or(l.ext[r].tickets)
		}
	}
}

// allocateOwnTicket gives a predicted-LL instruction a ticket its
// descendants will wait on. Exhaustion simply forgoes tracking (Fig. 11).
func (l *LTP) allocateOwnTicket(f *pipeline.Inflight) {
	t := l.freeTicket()
	if t < 0 {
		l.TicketsExhausted++
		return
	}
	l.ticketOwner[t] = f.Seq()
	l.ownTicket[f.Seq()] = t
}

// updateExt records the instruction as the latest writer of its
// destination register.
func (l *LTP) updateExt(f *pipeline.Inflight) {
	if !f.HasDst() {
		return
	}
	e := &l.ext[f.U.Dst]
	e.valid = true
	e.producerPC = f.U.PC
	e.producerSeq = f.Seq()
	e.tickets = f.Tickets
	if t, ok := l.ownTicket[f.Seq()]; ok {
		e.tickets.Set(t)
	}
}

// ShouldPark implements pipeline.Parker.
func (l *LTP) ShouldPark(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) bool {
	// P-bit: Non-Urgent consumers of parked producers park regardless of
	// the monitor (they could not execute anyway and would clog the IQ,
	// §5.2). Urgent consumers are NOT force-parked: they dispatch with a
	// lazy operand link so a loop-carried urgent chain that was parked
	// once during UIT warm-up can escape the parked state — otherwise the
	// parked bit would cascade through e.g. a loop counter forever and
	// serialize every dependent miss (the pathology behind the paper's
	// footnote on breaking false parked-bit dependences).
	if p.SrcParked(f.U.Src1) || p.SrcParked(f.U.Src2) {
		if !f.Urgent || l.cfg.DisableUrgentEscape {
			l.ForcedParks++
			return true
		}
	}
	// §5.3: loads the memory dependence unit predicts to depend on a
	// parked store are parked too (the parked bit propagates through
	// memory). The address check stands in for the paper's store→load
	// dependence prediction.
	if f.IsLoad() {
		if l.ParkedStoreConflict(f.U.Addr, f.Seq()) {
			l.ForcedParks++
			return true
		}
		if dep := p.PredictedDepStore(f); dep != nil && dep.Parked {
			l.ForcedParks++
			return true
		}
	}
	if !l.monitor.Enabled(now) {
		return false
	}
	switch l.cfg.Mode {
	case ModeNU:
		return !f.Urgent
	case ModeNR:
		return f.NonReady
	case ModeNRNU:
		return !f.Urgent || f.NonReady
	default:
		return false
	}
}

// CanAccept implements pipeline.Parker.
func (l *LTP) CanAccept(now uint64) bool {
	if l.cfg.Entries > 0 && l.queue.Len() >= l.cfg.Entries {
		return false
	}
	if l.cfg.Ports > 0 && l.enqThisCycle >= l.cfg.Ports {
		return false
	}
	return true
}

// scrubStaleTickets removes ticket bits that no longer correspond to an
// older in-flight owner. An instruction can be classified, then stall
// before dispatch (e.g. LTP write ports busy); ticket broadcasts during
// that window reach the queue and the RAT extension but not the stalled
// instruction, so its mask must be reconciled when it finally parks —
// otherwise it would wait forever on a ticket nobody will clear again.
func (l *LTP) scrubStaleTickets(f *pipeline.Inflight) {
	if f.Tickets.Empty() {
		return
	}
	for t := 0; t < len(l.ticketOwner); t++ {
		if !f.Tickets.Has(t) {
			continue
		}
		owner := l.ticketOwner[t]
		if owner == ^uint64(0) || owner >= f.Seq() {
			f.Tickets.Clear(t)
		}
	}
}

// Park implements pipeline.Parker.
func (l *LTP) Park(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	l.scrubStaleTickets(f)
	l.queue.Insert(f)
	if l.ticketWaiters != nil {
		if f.Tickets.Empty() {
			l.addFree(f)
		}
		for t := range ticketsOf(f.Tickets) {
			l.ticketWaiters[t].Insert(f)
		}
	}
	l.enqThisCycle++
	l.Enqueues++
	l.ParkedTotal++
	if f.IsLoad() {
		l.parkedLoads++
	}
	if f.IsStore() {
		l.addParkedStore(f)
	}
	if f.HasDst() {
		l.parkedRegs++
	}
}

// removeFromQueue drops a parked instruction from the queue and maintains
// the occupancy counters. The caller keeps the free lists.
func (l *LTP) removeFromQueue(f *pipeline.Inflight) {
	l.queue.Remove(f)
	l.noteLeft(f)
}

// noteLeft maintains the occupancy counters for an instruction leaving
// the queue (woken or squashed).
func (l *LTP) noteLeft(f *pipeline.Inflight) {
	if f.IsLoad() {
		l.parkedLoads--
	}
	if f.IsStore() {
		l.dropParkedStore(f)
	}
	if f.HasDst() {
		l.parkedRegs--
	}
}

// addFree files a ticket-free parked instruction for wakeup.
func (l *LTP) addFree(f *pipeline.Inflight) {
	if f.Urgent {
		l.freeUrgent.Insert(f)
	} else {
		l.freeNonUrgent.Insert(f)
	}
}

// ticketsOf yields every ticket set in m, lowest first.
func ticketsOf(m pipeline.TicketMask) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		for w, bitsLeft := range m {
			for bitsLeft != 0 {
				b := bits.TrailingZeros64(bitsLeft)
				bitsLeft &= bitsLeft - 1
				if !yield(w*64 + b) {
					return
				}
			}
		}
	}
}

// addParkedStore files a store entering the LTP.
func (l *LTP) addParkedStore(f *pipeline.Inflight) {
	s := parkedStore{f.Seq(), f.U.Addr}
	lst := l.parkedStoreList
	i := sort.Search(len(lst), func(i int) bool { return lst[i].seq > s.seq })
	lst = append(lst, parkedStore{})
	copy(lst[i+1:], lst[i:])
	lst[i] = s
	l.parkedStoreList = lst
	l.parkedStoreAddrs[s.addr]++
}

// dropParkedStore unfiles a store leaving the LTP.
func (l *LTP) dropParkedStore(f *pipeline.Inflight) {
	lst := l.parkedStoreList
	i := sort.Search(len(lst), func(i int) bool { return lst[i].seq >= f.Seq() })
	if i == len(lst) || lst[i].seq != f.Seq() {
		return
	}
	l.parkedStoreList = append(lst[:i], lst[i+1:]...)
	if n := l.parkedStoreAddrs[f.U.Addr] - 1; n > 0 {
		l.parkedStoreAddrs[f.U.Addr] = n
	} else {
		delete(l.parkedStoreAddrs, f.U.Addr)
	}
}

// ParkedStoreConflict implements pipeline.Parker.
func (l *LTP) ParkedStoreConflict(addr uint64, seq uint64) bool {
	if l.parkedStoreAddrs[addr] == 0 {
		return false
	}
	for _, s := range l.parkedStoreList {
		if s.seq >= seq {
			break
		}
		if s.addr == addr {
			return true
		}
	}
	return false
}

// sourcesResolved reports whether every parked producer of f has already
// been given its physical register (left the LTP).
func sourcesResolved(p *pipeline.Pipeline, f *pipeline.Inflight) bool {
	for _, h := range f.SrcProd {
		if h != 0 && p.Rec(h).DstPreg == pipeline.NoPReg {
			return false
		}
	}
	return true
}

// Wake implements pipeline.Parker: the ROB-proximity policy for Non-Urgent
// instructions (wake everything older than the second in-flight
// long-latency instruction, §3.2/§5.2) plus out-of-order ticket-clear
// wakeup for the Non-Ready design (Appendix).
func (l *LTP) Wake(p *pipeline.Pipeline, now uint64, max int, pressure bool) int {
	l.pressureMark = l.PressureWakes
	l.fireTicketClears(p, now)

	budget := max
	if l.cfg.Ports > 0 && budget > l.cfg.Ports {
		budget = l.cfg.Ports
	}
	woken := 0
	var bound uint64
	switch l.cfg.Wake {
	case WakeEager:
		bound = ^uint64(0)
	case WakeLazy:
		bound = p.ROBHeadSeq() + 16
	default:
		bound = p.WakeBound()
	}

	if l.cfg.Mode.ParksNR() {
		return l.wakeNR(p, now, budget, bound, pressure)
	}

	// Queue-based Non-Urgent design: strict FIFO release.
	for woken < budget && l.queue.Len() > 0 {
		f := p.Rec(l.queue.Front().H)
		eligible := f.Seq() < bound
		if pressure && woken == 0 {
			eligible = true
			l.PressureWakes++
		}
		if !eligible {
			break
		}
		if !sourcesResolved(p, f) || !p.CanUnpark(f, true) {
			break
		}
		l.removeFromQueue(f)
		p.Unpark(f, now)
		l.afterUnpark(f)
		woken++
	}
	return woken
}

// wakeNR is the out-of-order release of the Non-Ready designs (the
// ticket CAM / bit-matrix): oldest first, so producers leave no later
// than consumers. It visits, in program order, only the instructions the
// policy can release — the queue head under pressure (§5.4), ticket-free
// Urgent ones, and ticket-free Non-Urgent ones older than bound (ROB
// proximity) — and gives each the treatment a walk over the whole queue
// would: the head is the oldest parked instruction, pressure releases
// heads until one cannot leave, and every other instruction still
// holding a ticket is waiting on a long-latency ancestor.
func (l *LTP) wakeNR(p *pipeline.Pipeline, now uint64, budget int, bound uint64, pressure bool) int {
	urgent, nonUrgent := l.freeUrgent.Sweep(), l.freeNonUrgent.Sweep()
	woken := 0
	for woken < budget {
		head := l.queue.Front()
		r := head
		if pressure && head.H != 0 {
			l.PressureWakes++
		} else {
			r = urgent.Peek()
			if n := nonUrgent.Peek(); n.H != 0 && n.Seq < bound && (r.H == 0 || n.Seq < r.Seq) {
				r = n
			}
			if r.H == 0 {
				break
			}
		}
		// r is at the front of its free list, if it is on one.
		cur := &urgent
		if nonUrgent.Peek() == r {
			cur = &nonUrgent
		} else if urgent.Peek() != r {
			cur = nil
		}
		f := p.Rec(r.H)
		if !sourcesResolved(p, f) || !p.CanUnpark(f, r == head) {
			pressure = false // the head stays: later visits are not the oldest
			if cur != nil {
				cur.Keep()
			}
			continue
		}
		if cur != nil {
			cur.Drop()
		} else {
			l.dropTicketWaits(f) // a pressure release of a waiting head
		}
		l.removeFromQueue(f)
		p.Unpark(f, now)
		l.afterUnpark(f)
		woken++
	}
	urgent.Close()
	nonUrgent.Close()
	return woken
}

// dropTicketWaits takes an instruction leaving the LTP with tickets still
// set off their waiter lists.
func (l *LTP) dropTicketWaits(f *pipeline.Inflight) {
	for t := range ticketsOf(f.Tickets) {
		l.ticketWaiters[t].Remove(f)
	}
}

func (l *LTP) afterUnpark(f *pipeline.Inflight) {
	l.deqThisCycle++
	l.Dequeues++
	l.WokenTotal++
}

// fireTicketClears applies due ticket broadcasts to parked instructions
// and the RAT extension.
func (l *LTP) fireTicketClears(p *pipeline.Pipeline, now uint64) {
	if len(l.pendingClears) == 0 || l.nextClearAt > now {
		return
	}
	l.nextClearAt = ^uint64(0)
	l.clearedAt = now
	w := l.pendingClears[:0]
	for _, c := range l.pendingClears {
		if c.at > now {
			w = append(w, c)
			l.nextClearAt = min(l.nextClearAt, c.at)
			continue
		}
		if l.ticketOwner[c.ticket] != c.ownerSeq {
			continue // ticket was reassigned after a squash
		}
		l.clearTicket(p, c.ticket)
	}
	l.pendingClears = w
}

// clearTicket broadcasts a ticket clear and frees the ticket. Only the
// parked instructions waiting on t hold it; those left with no ticket
// become wakeup candidates.
func (l *LTP) clearTicket(p *pipeline.Pipeline, t int) {
	if l.ticketWaiters != nil {
		for _, r := range l.ticketWaiters[t].Items() {
			f := p.Rec(r.H)
			f.Tickets.Clear(t)
			if f.Tickets.Empty() {
				l.addFree(f)
			}
		}
		l.ticketWaiters[t].Clear()
	}
	for i := range l.ext {
		l.ext[i].tickets.Clear(t)
	}
	owner := l.ticketOwner[t]
	l.ticketOwner[t] = ^uint64(0)
	delete(l.ownTicket, owner)
}

// scheduleTicketClear arms a ticket's broadcast at the given cycle.
func (l *LTP) scheduleTicketClear(f *pipeline.Inflight, at uint64) {
	t, ok := l.ownTicket[f.Seq()]
	if !ok {
		return
	}
	if len(l.pendingClears) == 0 || at < l.nextClearAt {
		l.nextClearAt = at
	}
	l.pendingClears = append(l.pendingClears, ticketClear{at: at, ticket: t, ownerSeq: f.Seq()})
}

// NoteLoadIssued implements pipeline.Parker: DRAM-monitor restart, LL
// predictor training, and ticket early wakeup using the phased-tag signal.
func (l *LTP) NoteLoadIssued(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if f.MemLevel == mem.LvlDRAM {
		l.monitor.NoteDemandMiss(now)
	}
	if l.cfg.Oracle == nil {
		if l.cfg.Ident == IdentCrit {
			l.crit.TrainHit(f.U.PC, !f.LL)
		} else {
			l.llpred.Train(f.U.PC, f.LL)
		}
	}
	if l.cfg.Mode.ParksNR() {
		at := now
		if f.MemDone > now+l.cfg.EarlyWakeupLead {
			at = f.MemDone - l.cfg.EarlyWakeupLead
		}
		l.scheduleTicketClear(f, at)
	}
}

// NoteExecDone implements pipeline.Parker: non-memory long-latency
// operations broadcast their ticket when they finish (their latency is
// approximately known, §3.2).
func (l *LTP) NoteExecDone(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if l.cfg.Mode.ParksNR() && !f.IsLoad() {
		l.scheduleTicketClear(f, now)
	}
}

// NoteCommit implements pipeline.Parker: under IdentPaper, committed
// long-latency instructions seed the UIT (§5.2 step 1); under
// IdentCrit, the criticality counter is trained by whether the
// instruction blocked retirement (it finished within critCommitSlack
// cycles of committing — the ROB head was waiting on it).
func (l *LTP) NoteCommit(p *pipeline.Pipeline, f *pipeline.Inflight, now uint64) {
	if l.cfg.Oracle == nil {
		if l.cfg.Ident == IdentCrit {
			if f.LL || f.IsLoad() {
				l.crit.TrainCrit(f.U.PC, f.LL && now <= f.DoneAt+critCommitSlack)
			}
		} else if f.LL {
			l.uit.Insert(f.U.PC)
		}
	}
	// Tickets owned by instructions that never fired (e.g. predicted-LL
	// loads that were squashed out of issue) are reclaimed at commit.
	if t, ok := l.ownTicket[f.Seq()]; ok {
		l.clearTicket(p, t)
	}
}

// NoteSquash implements pipeline.Parker.
func (l *LTP) NoteSquash(p *pipeline.Pipeline, fromSeq uint64, now uint64) {
	// Drop squashed parked instructions: a program-ordered suffix of the
	// queue, and of every list that files parked instructions.
	l.queue.TruncateFrom(fromSeq, func(r pipeline.Ref) { l.noteLeft(p.Rec(r.H)) })
	if l.ticketWaiters != nil {
		l.freeUrgent.TruncateFrom(fromSeq, nil)
		l.freeNonUrgent.TruncateFrom(fromSeq, nil)
		for t := range l.ticketWaiters {
			l.ticketWaiters[t].TruncateFrom(fromSeq, nil)
		}
	}

	// Invalidate RAT extensions written by squashed instructions.
	for i := range l.ext {
		if l.ext[i].valid && l.ext[i].producerSeq >= fromSeq {
			l.ext[i] = ratExt{}
		}
	}

	// Free tickets owned by squashed instructions and broadcast their
	// clears so surviving dependents do not wait forever.
	for t, owner := range l.ticketOwner {
		if owner != ^uint64(0) && owner >= fromSeq {
			l.clearTicket(p, t)
		}
	}
}

// WarmObserve lets a functional warm-up train the LTP's classification
// tables without running the pipeline; level is the hierarchy level that
// served a memory µop (ignored otherwise). It mirrors what a detailed
// warm-up would plant:
//   - the LL predictor observes each load's service level;
//   - the UIT learns long-latency PCs (commit-time seeding, §5.2 step 1)
//     AND backward-propagates urgency to the producers of urgent
//     instructions' sources — without this second half every address
//     chain feeding a miss would be parked and the misses serialized;
//   - the DRAM-timer monitor's phase is approximated by tracking how
//     recently a DRAM-level demand load occurred (see WarmFinish).
//
// Under oracle classification the tables are bypassed, so nothing warms.
// The µop must not be retained.
func (l *LTP) WarmObserve(u *isa.Uop, level mem.Level) {
	if l.cfg.Oracle != nil {
		return
	}
	l.warmInsts++
	crit := l.cfg.Ident == IdentCrit
	// Backward urgency propagation, as in classifyRealistic.
	if l.Urgent(u.PC) {
		for _, r := range [2]isa.Reg{u.Src1, u.Src2} {
			if r.Valid() && l.ext[r].valid && l.ext[r].producerPC != 0 {
				if crit {
					l.crit.Bump(l.ext[r].producerPC)
				} else {
					l.uit.Insert(l.ext[r].producerPC)
				}
			}
		}
	}
	ll := false
	switch {
	case u.Op == isa.Load:
		ll = level >= mem.LvlL3
		if crit {
			l.crit.TrainHit(u.PC, !ll)
		} else {
			l.llpred.Train(u.PC, ll)
		}
		if ll {
			l.warmLastDRAM = l.warmInsts
			l.warmSawDRAM = true
		}
	case u.Op.IsLongLatencyALU():
		ll = true
	}
	if ll {
		// A functional warm-up has no retirement timing; treat every
		// long-latency PC as critical, as the UIT seeding does — the
		// measured region's commit-blocking outcomes then refine it.
		if crit {
			l.crit.TrainCrit(u.PC, true)
		} else {
			l.uit.Insert(u.PC)
		}
	}
	// Track the latest writer for the propagation above.
	if u.Dst.Valid() {
		e := &l.ext[u.Dst]
		e.valid = true
		e.producerPC = u.PC
		e.producerSeq = u.Seq
		e.tickets = pipeline.TicketMask{}
	}
}

// WarmFinish closes a functional warm-up at cycle now: if a DRAM-level
// load occurred within roughly one DRAM latency of the warm-up's end, the
// monitor starts the measured region enabled, as it would after a detailed
// warm-up.
func (l *LTP) WarmFinish(now uint64) {
	if l.warmSawDRAM && l.warmInsts-l.warmLastDRAM <= 2*l.monitor.latency {
		l.monitor.NoteDemandMiss(now)
	}
}

// ResetStats zeroes the statistics while keeping the queue, tickets, UIT
// and predictor state — the warm-up/measured-region boundary of a
// detailed-warm simulation.
func (l *LTP) ResetStats() {
	l.OccInsts.Reset()
	l.OccRegs.Reset()
	l.OccLoads.Reset()
	l.OccStores.Reset()
	l.ParkedTotal, l.WokenTotal = 0, 0
	l.PressureWakes, l.ForcedParks, l.pressureMark = 0, 0, 0
	l.ClassUrgent, l.ClassNonReady = 0, 0
	l.TicketsExhausted = 0
	l.Enqueues, l.Dequeues = 0, 0
	l.monitor.EnabledCycles, l.monitor.TotalCycles = 0, 0
	l.llpred.Predictions, l.llpred.PredictedLL, l.llpred.Correct = 0, 0, 0
}

// NoteCycle implements pipeline.Parker.
func (l *LTP) NoteCycle(p *pipeline.Pipeline, now uint64) {
	l.monitor.Tick(now)
	l.OccInsts.Add(float64(l.queue.Len()))
	l.OccRegs.Add(float64(l.parkedRegs))
	l.OccLoads.Add(float64(l.parkedLoads))
	l.OccStores.Add(float64(len(l.parkedStoreList)))
	l.enqThisCycle = 0
	l.deqThisCycle = 0
}

// NextChange implements pipeline.Parker: the earliest due ticket clear
// and, when the DRAM monitor is not forced on, its timer expiring are
// the unit's only time-driven changes. A cycle that fired clears
// changed the unit's state, so it is not idle.
func (l *LTP) NextChange(now uint64) uint64 {
	if l.clearedAt == now {
		return now + 1
	}
	next := l.monitor.next(now)
	if len(l.pendingClears) > 0 {
		next = min(next, max(l.nextClearAt, now+1))
	}
	return next
}

// SkipCycles implements pipeline.Parker: k more cycles like idle cycle
// now. Nothing parks or wakes in them, so the occupancies repeat; Wake
// counted a pressure wake in cycle now if the ROB head was stuck parked
// under pressure, and counts one in each skipped cycle too.
func (l *LTP) SkipCycles(now, k uint64) {
	l.monitor.skip(now, k)
	l.OccInsts.AddN(float64(l.queue.Len()), k)
	l.OccRegs.AddN(float64(l.parkedRegs), k)
	l.OccLoads.AddN(float64(l.parkedLoads), k)
	l.OccStores.AddN(float64(len(l.parkedStoreList)), k)
	l.PressureWakes += k * (l.PressureWakes - l.pressureMark)
}

var _ pipeline.Parker = (*LTP)(nil)
