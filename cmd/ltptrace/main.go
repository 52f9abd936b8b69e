// Command ltptrace prints a per-instruction pipeline timeline (in the
// spirit of gem5's O3 pipeview) for a window of committed instructions,
// showing where each instruction spent its life — and, with -ltp, which
// instructions were parked and for how long.
//
// Example:
//
//	ltptrace -workload indirect -skip 50000 -count 40 -ltp
//
// Columns: F fetch, R rename, I issue, D execution done, C commit. The
// bar renders one character per -res cycles: 'p' parked, '.' waiting in
// the IQ, '=' executing, '-' done but waiting to commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/workload"
)

type rec struct {
	seq                      uint64
	label, op                string
	fetched, renamed, issued uint64
	done, committed          uint64
	parked                   bool
	urgent                   bool
}

func main() {
	var (
		name   = flag.String("workload", "indirect", "workload name")
		scale  = flag.Float64("scale", 0.25, "working-set scale")
		skip   = flag.Uint64("skip", 50_000, "instructions to skip before tracing")
		count  = flag.Int("count", 33, "instructions to trace")
		useLTP = flag.Bool("ltp", false, "attach the LTP (IQ:32/RF:96 design)")
		res    = flag.Int("res", 8, "cycles per bar character")
	)
	flag.Parse()

	wl, err := workload.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltptrace:", err)
		os.Exit(1)
	}
	program := wl.Build(*scale)

	pcfg := pipeline.DefaultConfig()
	var parker pipeline.Parker = pipeline.NullParker{}
	if *useLTP {
		pcfg.IQSize = 32
		pcfg.IntRegs, pcfg.FPRegs = 96, 96
		parker = core.New(core.DefaultConfig(), pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
	}
	em := prog.NewEmulator(program)
	pipe := pipeline.New(pcfg, em, parker)

	// Warm caches so the trace shows steady state.
	var u isa.Uop
	for n := uint64(0); n < 50_000; n++ {
		if !em.Next(&u) {
			break
		}
		if u.IsMem() {
			pipe.Hier.Warm(u.PC, u.Addr, u.Op == isa.Store)
		}
	}

	var recs []rec
	pipe.TraceSink = func(f *pipeline.Inflight) {
		if pipe.Committed() < *skip || len(recs) >= *count {
			return
		}
		label := program.Insts[prog.IndexOf(f.U.PC)].Label
		if label == "" {
			label = "-"
		}
		recs = append(recs, rec{
			seq: f.Seq(), label: label, op: f.U.Op.String(),
			fetched: f.FetchedAt, renamed: f.RenamedAt, issued: f.IssuedAt,
			done: f.DoneAt, committed: f.CommitAt,
			parked: f.WasParked, urgent: f.Urgent,
		})
	}
	pipe.Run(*skip+uint64(*count)+64, 0)
	if err := pipe.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ltptrace:", err)
		os.Exit(1)
	}

	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "ltptrace: nothing traced (program too short?)")
		os.Exit(1)
	}
	base := recs[0].fetched
	fmt.Printf("workload=%s ltp=%v cycles are relative to the first traced fetch\n", *name, *useLTP)
	fmt.Printf("%5s %3s %-6s %7s %7s %7s %7s %7s %6s  timeline (1 char = %d cycles)\n",
		"seq", "tag", "op", "F", "R", "I", "D", "C", "class", *res)
	for _, r := range recs {
		class := " "
		if r.parked {
			class = "parked"
		} else if r.urgent {
			class = "urgent"
		}
		fmt.Printf("%5d %3s %-6s %7d %7d %7d %7d %7d %6s  %s\n",
			r.seq, r.label, r.op,
			r.fetched-base, r.renamed-base, r.issued-base, r.done-base, r.committed-base,
			class, bar(r, base, *res))
	}
}

// bar renders the instruction's lifetime as one character per res cycles.
func bar(r rec, base uint64, res int) string {
	div := uint64(res)
	cell := func(c uint64) int { return int((c - base) / div) }
	var b strings.Builder
	start, issue, done, commit := cell(r.fetched), cell(r.issued), cell(r.done), cell(r.committed)
	if r.issued == 0 { // never issued through the IQ path (e.g. nop)
		issue = done
	}
	b.WriteString(strings.Repeat(" ", start))
	wait := byte('.')
	if r.parked {
		wait = 'p'
	}
	for i := start; i <= commit; i++ {
		switch {
		case i < issue:
			b.WriteByte(wait)
		case i <= done:
			b.WriteByte('=')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}
