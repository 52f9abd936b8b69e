package trace

import (
	"io"

	"ltp/internal/isa"
	"ltp/internal/prog"
)

// Recorder tees a µop stream into a trace Writer while passing it
// through unchanged, so a normal simulation run doubles as a capture
// run: the pipeline (and the fast warm-up) pull from the Recorder
// exactly as they would from the wrapped stream, and every pulled µop
// is appended to the trace in order.
type Recorder struct {
	inner prog.Stream
	w     *Writer
	err   error
}

// NewRecorder returns a Recorder capturing name's µop stream into w.
// Close must be called after the run to finalize the trace.
func NewRecorder(inner prog.Stream, w io.Writer, name string) *Recorder {
	return &Recorder{inner: inner, w: NewWriter(w, name)}
}

// Next pulls one µop from the wrapped stream, recording it on success.
func (r *Recorder) Next(u *isa.Uop) bool {
	if !r.inner.Next(u) {
		return false
	}
	if r.err == nil {
		r.err = r.w.Append(u)
	}
	return true
}

// FastForward advances the wrapped stream by up to n µops, recording
// each one, so a functionally-warmed recording covers the warm region.
func (r *Recorder) FastForward(n uint64, touch func(u *isa.Uop)) uint64 {
	return fastForward(r, n, touch)
}

// fastForward pulls up to n µops from s through touch (the shared body
// of Reader.FastForward and Recorder.FastForward).
func fastForward(s prog.Stream, n uint64, touch func(u *isa.Uop)) uint64 {
	var u isa.Uop
	var done uint64
	for ; done < n; done++ {
		if !s.Next(&u) {
			break
		}
		if touch != nil {
			touch(&u)
		}
	}
	return done
}

// Count returns the number of µops recorded so far.
func (r *Recorder) Count() uint64 { return r.w.Count() }

// Pos captures the underlying Writer's current position (see
// Writer.Pos) — a checkpoint at which NewReaderAt can later reopen the
// recording.
func (r *Recorder) Pos() Pos { return r.w.Pos() }

// Flush writes what has been recorded so far through to the underlying
// io.Writer (see Writer.Flush); recording may continue afterwards.
func (r *Recorder) Flush() error {
	if err := r.w.Flush(); r.err == nil {
		r.err = err
	}
	return r.err
}

// Close finalizes the trace (end marker + footer). The wrapped stream
// and the underlying io.Writer are untouched.
func (r *Recorder) Close() error {
	if err := r.w.Close(); r.err == nil {
		r.err = err
	}
	return r.err
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

var (
	_ prog.Stream        = (*Recorder)(nil)
	_ prog.FastForwarder = (*Recorder)(nil)
)

// Record pulls up to n µops from src and writes them as a complete
// trace to w, returning the number recorded. It is the offline capture
// path (e.g. cmd/ltpsim -record): the emulator runs at functional
// speed with no timing model attached.
func Record(w io.Writer, name string, src prog.Stream, n uint64) (uint64, error) {
	rec := NewRecorder(src, w, name)
	done := rec.FastForward(n, nil)
	return done, rec.Close()
}
