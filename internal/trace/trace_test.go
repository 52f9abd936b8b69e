package trace

import (
	"bytes"
	"testing"

	"ltp/internal/isa"
	"ltp/internal/prog"
	"ltp/internal/workload"
)

// pull drains a stream into a slice (tests only; real consumers reuse
// the µop).
func pull(s prog.Stream, max int) []isa.Uop {
	var out []isa.Uop
	var u isa.Uop
	for len(out) < max && s.Next(&u) {
		out = append(out, u)
	}
	return out
}

// TestRoundTripWorkloads records a prefix of every registered kernel
// and every scenario family and asserts the decoded µops are identical
// field-for-field to a fresh emulation.
func TestRoundTripWorkloads(t *testing.T) {
	const n = 5_000
	var progs []*prog.Program
	for _, s := range workload.All() {
		progs = append(progs, s.Build(0.02))
	}
	for _, f := range workload.Families() {
		progs = append(progs, f.Build(nil, 0.02, 7))
	}
	for _, p := range progs {
		var buf bytes.Buffer
		rec, err := Record(&buf, p.Name, prog.NewEmulator(p), n)
		if err != nil {
			t.Fatalf("%s: record: %v", p.Name, err)
		}
		if rec != n {
			t.Fatalf("%s: recorded %d µops, want %d", p.Name, rec, n)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reader: %v", p.Name, err)
		}
		if r.Name() != p.Name {
			t.Errorf("name round-trip: got %q want %q", r.Name(), p.Name)
		}
		want := pull(prog.NewEmulator(p), n)
		got := pull(r, n+1)
		if r.Err() != nil {
			t.Fatalf("%s: decode: %v", p.Name, r.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d µops, want %d", p.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: µop %d drifted:\n got %s\nwant %s", p.Name, i, got[i].String(), want[i].String())
			}
		}
	}
}

// TestRoundTripEdgeUops exercises field extremes the workloads do not:
// huge address swings, far branch targets, label interning reuse.
func TestRoundTripEdgeUops(t *testing.T) {
	uops := []isa.Uop{
		{Op: isa.Load, PC: prog.CodeBase, Dst: isa.R(0), Src1: isa.R(31), Addr: ^uint64(0) &^ 7, Size: 8, Label: "A"},
		{Op: isa.Store, PC: prog.CodeBase + 4, Src1: isa.R(1), Src2: isa.F(31), Addr: 0, Size: 8, Label: "A"},
		{Op: isa.Branch, PC: prog.CodeBase + 8, Src1: isa.R(2), Taken: true, Target: prog.CodeBase, Size: 8},
		{Op: isa.Branch, PC: prog.CodeBase, Src1: isa.R(2), Taken: false, Target: prog.CodeBase + 1<<20, Size: 8, Label: "far"},
		{Op: isa.FSqrt, PC: prog.CodeBase + 4, Dst: isa.F(0), Src1: isa.F(0), Src2: isa.NoReg, Size: 8},
		{Op: isa.Nop, PC: prog.CodeBase + 8, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Size: 8, Label: "A"},
	}
	for i := range uops {
		uops[i].Seq = uint64(i)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, "edge")
	for i := range uops {
		if err := w.Append(&uops[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	got := pull(r, len(uops)+1)
	if r.Err() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if len(got) != len(uops) {
		t.Fatalf("decoded %d, want %d", len(got), len(uops))
	}
	for i := range uops {
		if got[i] != uops[i] {
			t.Errorf("µop %d drifted:\n got %#v\nwant %#v", i, got[i], uops[i])
		}
	}
}

// TestTruncatedAndCorrupt asserts every damaged form of a valid trace
// yields an error (via NewReader or Err) and never a panic.
func TestTruncatedAndCorrupt(t *testing.T) {
	p := mustFamilyProgram(t)
	var buf bytes.Buffer
	if _, err := Record(&buf, p.Name, prog.NewEmulator(p), 300); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Every proper prefix is either a header error or a truncation.
	for cut := 0; cut < len(full)-1; cut += 7 {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		var u isa.Uop
		for r.Next(&u) {
		}
		if r.Err() == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", cut)
		}
	}

	// Flipping bytes must never panic; it may decode to garbage that
	// still parses, but structural damage must surface via Err.
	for i := 0; i < len(full); i += 3 {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xA5
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		var u isa.Uop
		for r.Next(&u) {
		}
	}

	// A record head with reserved bits set is rejected.
	bad := append([]byte(nil), full[:len(magic)+1+len(p.Name)]...)
	bad = append(bad, 0xC1)
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var u isa.Uop
	if r.Next(&u) || r.Err() == nil {
		t.Error("reserved head bits accepted")
	}
}

func mustFamilyProgram(t *testing.T) *prog.Program {
	t.Helper()
	f, err := workload.FamilyByName("hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	return f.Build(nil, 0.02, 3)
}

// TestSeekRoundTrip records a kernel while capturing a Pos checkpoint
// at record boundaries, then reopens the trace at every checkpoint and
// asserts the decoded suffix matches the full decode field-for-field —
// absolute sequence numbers included — and still ends cleanly at the
// footer.
func TestSeekRoundTrip(t *testing.T) {
	const n = 300
	p := mustFamilyProgram(t)
	var buf bytes.Buffer
	rec := NewRecorder(prog.NewEmulator(p), &buf, p.Name)
	checkpoints := map[uint64]Pos{}
	var u isa.Uop
	for i := uint64(0); i < n; i++ {
		if i%37 == 0 || i == 1 || i == n-1 {
			checkpoints[i] = rec.Pos()
		}
		if !rec.Next(&u) {
			t.Fatalf("stream ended at %d", i)
		}
	}
	tail := rec.Pos()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	want := pull(prog.NewEmulator(p), n)
	data := buf.Bytes()
	for at, pos := range checkpoints {
		if pos.Records != at {
			t.Fatalf("checkpoint %d: Records = %d", at, pos.Records)
		}
		r := NewReaderAt(bytes.NewReader(data), pos)
		got := pull(r, n+1)
		if r.Err() != nil {
			t.Fatalf("checkpoint %d: decode: %v", at, r.Err())
		}
		if len(got) != int(n-at) {
			t.Fatalf("checkpoint %d: decoded %d µops, want %d", at, len(got), n-at)
		}
		for j := range got {
			if got[j] != want[int(at)+j] {
				t.Fatalf("checkpoint %d: µop %d drifted:\n got %#v\nwant %#v", at, j, got[j], want[int(at)+j])
			}
		}
	}

	// Opening at the tail checkpoint lands exactly on the footer: Next
	// must report a clean end, not a footer-count error.
	r := NewReaderAt(bytes.NewReader(data), tail)
	if r.Next(&u) {
		t.Fatal("tail checkpoint decoded a µop")
	}
	if r.Err() != nil {
		t.Fatalf("tail checkpoint: %v", r.Err())
	}
}

// TestFlushMidRecording pins what the sampled tier's streamed
// intervals rely on: after Flush, a reader opened at an earlier Pos
// over a snapshot of the bytes written so far decodes every record up to
// the flush, while the recorder goes on appending behind it.
func TestFlushMidRecording(t *testing.T) {
	const at, flushed, n = 40, 120, 300
	p := mustFamilyProgram(t)
	var buf bytes.Buffer
	rec := NewRecorder(prog.NewEmulator(p), &buf, p.Name)
	var u isa.Uop
	var pos Pos
	for i := 0; i < flushed; i++ {
		if i == at {
			pos = rec.Pos()
		}
		if !rec.Next(&u) {
			t.Fatalf("stream ended at %d", i)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()
	if got := rec.FastForward(n-flushed, nil); got != n-flushed {
		t.Fatalf("recorded %d more µops after the flush, want %d", got, n-flushed)
	}

	want := pull(prog.NewEmulator(p), flushed)
	r := NewReaderAt(bytes.NewReader(snapshot), pos)
	got := pull(r, flushed-at)
	if r.Err() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if len(got) != flushed-at {
		t.Fatalf("decoded %d µops from the snapshot, want %d", len(got), flushed-at)
	}
	for j := range got {
		if got[j] != want[at+j] {
			t.Fatalf("µop %d drifted:\n got %#v\nwant %#v", j, got[j], want[at+j])
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFastForwardToEnd pins the boundary the sampled tier relies on:
// fast-forwarding exactly to the final µop leaves the Reader able to
// consume the footer cleanly, and overshooting stops at the end with
// no error.
func TestFastForwardToEnd(t *testing.T) {
	const n = 200
	p := mustFamilyProgram(t)
	var buf bytes.Buffer
	if _, err := Record(&buf, p.Name, prog.NewEmulator(p), n); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if did := r.FastForward(n, nil); did != n {
		t.Fatalf("FastForward replayed %d, want %d", did, n)
	}
	var u isa.Uop
	if r.Next(&u) {
		t.Fatal("Next yielded a µop past the recorded count")
	}
	if r.Err() != nil {
		t.Fatalf("clean end expected, got %v", r.Err())
	}

	r2, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if did := r2.FastForward(n+50, nil); did != n {
		t.Fatalf("overshoot FastForward replayed %d, want %d", did, n)
	}
	if r2.Err() != nil {
		t.Fatalf("overshoot must end cleanly, got %v", r2.Err())
	}
}

// TestSeekTruncatedTail asserts that opening a checkpoint at or near
// the tail of a truncated trace reports ErrTruncated — never a panic —
// even when the cut lands inside the footer.
func TestSeekTruncatedTail(t *testing.T) {
	const n = 120
	p := mustFamilyProgram(t)
	var buf bytes.Buffer
	rec := NewRecorder(prog.NewEmulator(p), &buf, p.Name)
	var mid Pos
	var u isa.Uop
	for i := 0; i < n; i++ {
		if i == n/2 {
			mid = rec.Pos()
		}
		if !rec.Next(&u) {
			t.Fatalf("stream ended at %d", i)
		}
	}
	tail := rec.Pos()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut everywhere from the last record through the footer bytes.
	for cut := int(tail.Offset); cut < len(full); cut++ {
		for _, pos := range []Pos{mid, tail} {
			r := NewReaderAt(bytes.NewReader(full[:cut]), pos)
			for r.Next(&u) {
			}
			if r.Err() != ErrTruncated {
				t.Fatalf("cut %d at records %d: got %v, want ErrTruncated", cut, pos.Records, r.Err())
			}
		}
	}

	// A checkpoint beyond the data entirely is also a truncation.
	past := tail
	past.Offset = uint64(len(full)) + 9
	r := NewReaderAt(bytes.NewReader(full), past)
	if r.Next(&u) || r.Err() != ErrTruncated {
		t.Fatalf("out-of-range checkpoint: got %v, want ErrTruncated", r.Err())
	}
}

// TestWriterAfterClose pins the misuse error.
func TestWriterAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "x")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	u := isa.Uop{Op: isa.Nop, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	if err := w.Append(&u); err == nil {
		t.Error("Append after Close succeeded")
	}
}
