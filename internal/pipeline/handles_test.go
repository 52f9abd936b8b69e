package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"ltp/internal/isa"
	"ltp/internal/prog"
)

// TestInflightHasNoPointers keeps the cycle loop's records and
// containers invisible to the garbage collector: an Inflight, a timing
// event and a SeqList element must hold no pointer, slice, map,
// interface, string, channel or function, at any depth.
func TestInflightHasNoPointers(t *testing.T) {
	for _, v := range []any{Inflight{}, event{}, Ref{}} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a GC-visible reference at %s", typ.Name(), path)
		}
	}
}

// pointerPath returns the path to the first reference-holding field of
// typ, or "" when there is none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
		return path + " (" + typ.String() + ")"
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestCheckInvariantsCatchesStaleHandles plants, in each container the
// invariant check covers, a handle to a record the slab has recycled —
// with the seq it had, as a container that missed its release would
// hold it — and requires the check to report it; likewise a handle the
// slab never handed out, and a live record named with another seq.
func TestCheckInvariantsCatchesStaleHandles(t *testing.T) {
	b := prog.NewBuilder("loop")
	b.SetReg(isa.R(2), 1<<20)
	b.Label("loop").
		Ld(isa.R(3), isa.R(1), 0).
		Add(isa.R(4), isa.R(4), isa.R(3)).
		St(isa.R(1), 8, isa.R(4)).
		Addi(isa.R(1), isa.R(1), 64).
		Addi(isa.R(2), isa.R(2), -1).
		Br(isa.CondNE, isa.R(2), "loop")
	program := b.Build()

	// run returns a pipeline some way into the loop, healthy, with a
	// record in its pool.
	run := func(t *testing.T) *Pipeline {
		p := New(smallConfig(), prog.NewEmulator(program), NullParker{})
		for p.Committed() < 3000 || len(p.pool) == 0 {
			p.Cycle()
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("healthy pipeline fails its invariants: %v", err)
		}
		return p
	}
	for _, tc := range []struct {
		name  string
		plant func(p *Pipeline, stale Handle)
		want  string
	}{
		{"event heap", func(p *Pipeline, h Handle) {
			p.events.push(event{at: p.now + 1, seq: p.Rec(h).Seq(), h: h, kind: evDone})
		}, "event heap"},
		{"ROB", func(p *Pipeline, h Handle) {
			p.rob.entries[len(p.rob.entries)-1] = h
		}, "ROB"},
		{"LQ", func(p *Pipeline, h Handle) {
			p.lq.buf = append(p.lq.buf, p.Rec(h).Ref())
		}, "LQ"},
		{"LL list", func(p *Pipeline, h Handle) {
			p.llList.buf = append(p.llList.buf, p.Rec(h).Ref())
		}, "LL list"},
		{"drain queue", func(p *Pipeline, h Handle) {
			p.drainQ = append(p.drainQ, h)
			p.drainAt = append(p.drainAt, p.now+1)
		}, "store drain queue"},
		{"unknown handle", func(p *Pipeline, _ Handle) {
			p.llList.buf = append(p.llList.buf, Ref{Seq: 1, H: p.slab.n + 5})
		}, "invalid handle"},
		{"reused record", func(p *Pipeline, _ Handle) {
			r := p.rob.Head().Ref()
			r.Seq += 1000
			p.iq.ready.buf = append(p.iq.ready.buf, r)
		}, "IQ ready list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := run(t)
			tc.plant(p, p.pool[len(p.pool)-1])
			err := p.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stale handle in the %s not reported: %v", tc.name, err)
			}
		})
	}
}

// TestSlabReusesRecords requires the slab to recycle records on every
// core, the WIB baseline included: a run of 10k instructions must not
// hand out more than about two ROB windows of records, however long it
// runs. The kernel reads, in every iteration, a register written once
// before the loop, so a rename link to that long-committed writer would
// outlive the reuse window (runProgram's invariant checks report it).
func TestSlabReusesRecords(t *testing.T) {
	b := prog.NewBuilder("gather+const")
	b.SetReg(isa.R(1), 77)
	b.SetReg(isa.R(2), 6364136223846793005)
	b.Addi(isa.R(4), isa.R(0), 0x2_0000_0000)
	b.Label("loop").
		Mul(isa.R(1), isa.R(1), isa.R(2)).
		Andi(isa.R(3), isa.R(1), 0x3FFFF8).
		Add(isa.R(5), isa.R(4), isa.R(3)).
		Ld(isa.R(6), isa.R(5), 0).
		Add(isa.R(9), isa.R(9), isa.R(6)).
		Addi(isa.R(10), isa.R(10), -1).
		Br(isa.CondNE, isa.R(10), "loop")
	program := b.Build()
	for _, wib := range []int{0, 256} {
		cfg := smallConfig()
		cfg.IQSize = 16
		cfg.WIBSize = wib
		pipe, _ := runProgram(t, cfg, program, 10_000)
		if n, bound := int(pipe.slab.n), 3*cfg.ROBSize; n > bound {
			t.Errorf("WIB %d: the slab handed out %d records, want <= %d", wib, n, bound)
		}
	}
}
