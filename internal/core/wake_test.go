package core

import (
	"reflect"
	"testing"

	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// queueWalkLTP wakes with the whole-queue walk the event-driven wakeNR
// replaced: every parked instruction, oldest first, judged by the
// policy. It keeps the LTP's wakeup lists in step so the rest of the
// unit runs unchanged.
type queueWalkLTP struct{ *LTP }

func (l queueWalkLTP) Wake(p *pipeline.Pipeline, now uint64, max int, pressure bool) int {
	if !l.cfg.Mode.ParksNR() {
		return l.LTP.Wake(p, now, max, pressure)
	}
	l.fireTicketClears(p, now)
	budget := max
	if l.cfg.Ports > 0 && budget > l.cfg.Ports {
		budget = l.cfg.Ports
	}
	var bound uint64
	switch l.cfg.Wake {
	case WakeEager:
		bound = ^uint64(0)
	case WakeLazy:
		bound = p.ROBHeadSeq() + 16
	default:
		bound = p.WakeBound()
	}
	woken := 0
	for i := 0; i < l.queue.Len() && woken < budget; {
		f := p.Rec(l.queue.Items()[i].H)
		oldest := i == 0
		eligible := false
		switch {
		case pressure && oldest:
			eligible = true
			l.PressureWakes++
		case !f.Tickets.Empty():
		case f.Urgent:
			eligible = true
		default:
			eligible = f.Seq() < bound
		}
		if !eligible || !sourcesResolved(p, f) || !p.CanUnpark(f, oldest) {
			i++
			continue
		}
		switch {
		case !f.Tickets.Empty():
			l.dropTicketWaits(f)
		case f.Urgent:
			l.freeUrgent.Remove(f)
		default:
			l.freeNonUrgent.Remove(f)
		}
		l.removeFromQueue(f)
		p.Unpark(f, now)
		l.afterUnpark(f)
		woken++
	}
	return woken
}

// TestWakeNRMatchesQueueWalk runs random programs through the NR wakeup
// twice — event-driven and whole-queue walk — on cores squeezed so that
// pressure releases, failed releases of the oldest instruction and ticket
// exhaustion all occur, and requires identical results.
func TestWakeNRMatchesQueueWalk(t *testing.T) {
	type outcome struct {
		res                             pipeline.Result
		pressure, woken, parked, exhaus uint64
		failed                          bool
	}
	squeeze := func(pc *pipeline.Config, lc *Config) {
		pc.IQSize, pc.ROBSize = 6, 48
		pc.IntRegs, pc.FPRegs = 36, 36
		pc.LQSize, pc.SQSize = 8, 6
		pc.ParkReserveIQ, pc.ParkReserveRegs = 0, 1
		pc.LateLSQAlloc = true
		lc.Entries, lc.Ports, lc.Tickets = 0, 0, 4
	}
	eager := func(pc *pipeline.Config, lc *Config) {
		squeeze(pc, lc)
		lc.Wake = WakeEager
	}
	small := func(pc *pipeline.Config, lc *Config) {
		pc.IQSize = 12
		lc.Entries, lc.Ports, lc.Tickets = 24, 2, 8
	}
	tweaks := []struct {
		name  string
		tweak func(*pipeline.Config, *Config)
	}{{"squeeze", squeeze}, {"eager", eager}, {"small", small}}
	for seed := int64(1); seed <= 6; seed++ {
		for _, mode := range []Mode{ModeNR, ModeNRNU} {
			for _, tw := range tweaks {
				run := func(walk bool) outcome {
					pcfg := pipeline.DefaultConfig()
					pcfg.Hier.PrefetchDegree = 0
					pcfg.WatchdogCycles = 100_000
					lcfg := DefaultConfig()
					lcfg.Mode = mode
					tw.tweak(&pcfg, &lcfg)
					unit := New(lcfg, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
					var parker pipeline.Parker = unit
					if walk {
						parker = queueWalkLTP{unit}
					}
					p := randomProgram(seed)
					pipe := pipeline.New(pcfg, prog.NewEmulator(p), parker)
					for i := range p.Insts {
						pipe.Hier.WarmFetch(prog.PCOf(i))
					}
					for pipe.Committed() < 6_000 && pipe.Err() == nil && pipe.Now() < 2_000_000 {
						pipe.Cycle()
						if pipe.Now()%256 == 0 {
							if err := pipe.CheckInvariants(); err != nil {
								t.Fatalf("seed %d %v %s walk=%v: %v", seed, mode, tw.name, walk, err)
							}
						}
					}
					return outcome{pipe.Snapshot(), unit.PressureWakes, unit.WokenTotal,
						unit.ParkedTotal, unit.TicketsExhausted, pipe.Err() != nil}
				}
				got, want := run(false), run(true)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %v %s: event-driven wakeup diverges from the queue walk:\n got %d cycles, %d pressure wakes, %d woken, failed %v\nwant %d cycles, %d pressure wakes, %d woken, failed %v",
						seed, mode, tw.name, got.res.Cycles, got.pressure, got.woken, got.failed,
						want.res.Cycles, want.pressure, want.woken, want.failed)
				}
			}
		}
	}
}
