package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"ltp/internal/isa"
	"ltp/internal/prog"
)

const magic = "LTPTRC1\n"

const (
	flagTaken = 0x10
	flagLabel = 0x20
	flagMask  = flagTaken | flagLabel
	endMarker = 0xFF

	maxNameLen  = 1 << 16
	maxLabelLen = 1 << 12
	maxLabelTab = 1 << 20
	regNoneByte = 0 // isa.NoReg encodes as 0; real registers as reg+1
	maxRegByte  = isa.NumArchRegs
)

// ErrTruncated reports input that ended before the end-of-trace marker.
var ErrTruncated = errors.New("trace: truncated input")

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer encodes µops to an output stream. Close writes the footer;
// a trace without its footer is reported as truncated by the Reader.
type Writer struct {
	w         *bufio.Writer
	prevPC    uint64
	prevAddr  uint64
	labels    map[string]uint64
	labelList []string
	count     uint64
	off       uint64
	err       error
	closed    bool
}

// NewWriter writes the header for a trace of the named program and
// returns a Writer appending to w. The caller owns w (and closes it,
// if it is a file) after Close.
func NewWriter(w io.Writer, name string) *Writer {
	tw := &Writer{
		w:      bufio.NewWriterSize(w, 1<<16),
		prevPC: prog.CodeBase,
		labels: make(map[string]uint64),
	}
	if len(name) > maxNameLen {
		name = name[:maxNameLen]
	}
	tw.w.WriteString(magic)
	tw.off += uint64(len(magic))
	tw.uvarint(uint64(len(name)))
	tw.w.WriteString(name)
	tw.off += uint64(len(name))
	return tw
}

func (tw *Writer) uvarint(v uint64) {
	var buf [10]byte
	n := 0
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	tw.w.Write(buf[:n+1])
	tw.off += uint64(n + 1)
}

func regByte(r isa.Reg) byte {
	if !r.Valid() {
		return regNoneByte
	}
	return byte(r) + 1
}

// Append encodes one µop. Sequence numbers are not stored: a record's
// position is its sequence number, so Append must be called in dynamic
// order starting from the first µop of the run.
func (tw *Writer) Append(u *isa.Uop) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		tw.err = errors.New("trace: Append after Close")
		return tw.err
	}
	head := byte(u.Op)
	if u.Op >= isa.NumOps {
		tw.err = fmt.Errorf("trace: invalid opcode %d", u.Op)
		return tw.err
	}
	if u.Taken {
		head |= flagTaken
	}
	if u.Label != "" {
		head |= flagLabel
	}
	if err := tw.w.WriteByte(head); err != nil {
		tw.err = err
		return err
	}
	tw.off++
	tw.uvarint(zigzag(int64(u.PC - tw.prevPC)))
	tw.prevPC = u.PC
	tw.w.WriteByte(regByte(u.Dst))
	tw.w.WriteByte(regByte(u.Src1))
	tw.w.WriteByte(regByte(u.Src2))
	tw.off += 3
	if u.IsMem() {
		tw.uvarint(zigzag(int64(u.Addr - tw.prevAddr)))
		tw.prevAddr = u.Addr
	}
	if u.IsBranch() {
		tw.uvarint(zigzag(int64(u.Target - (u.PC + prog.InstBytes))))
	}
	if u.Label != "" {
		lbl := u.Label
		if len(lbl) > maxLabelLen {
			lbl = lbl[:maxLabelLen]
		}
		if id, ok := tw.labels[lbl]; ok {
			tw.uvarint(id)
		} else {
			id = uint64(len(tw.labels))
			tw.labels[lbl] = id
			tw.labelList = append(tw.labelList, lbl)
			tw.uvarint(id)
			tw.uvarint(uint64(len(lbl)))
			tw.w.WriteString(lbl)
			tw.off += uint64(len(lbl))
		}
	}
	tw.count++
	return nil
}

// Pos is a resumable mid-trace position: everything a Reader needs to
// resume decoding at a record boundary without re-reading the prefix —
// the byte offset of the next record head, the delta-coding state, and
// the label table interned so far. Positions are captured between
// Appends with Writer.Pos and consumed by NewReaderAt; they index the
// interval boundaries of a sampled run.
type Pos struct {
	// Offset is the byte offset (from the start of the trace, header
	// included) of the next record head.
	Offset uint64
	// Records is the number of µop records encoded before this
	// position; µops decoded from here continue the recording's
	// absolute sequence numbering at this value.
	Records uint64
	// PrevPC is the PC delta-coding state at this position.
	PrevPC uint64
	// PrevAddr is the address delta-coding state at this position.
	PrevAddr uint64
	// Labels is the label table prefix interned before this position,
	// in interning order.
	Labels []string
}

// Pos captures the Writer's current position, a checkpoint from which
// NewReaderAt can resume decoding. Append never leaves the Writer
// mid-record, so any moment between Appends is a valid checkpoint.
func (tw *Writer) Pos() Pos {
	labels := make([]string, len(tw.labelList))
	copy(labels, tw.labelList)
	return Pos{
		Offset:   tw.off,
		Records:  tw.count,
		PrevPC:   tw.prevPC,
		PrevAddr: tw.prevAddr,
		Labels:   labels,
	}
}

// Count returns the number of µops appended so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush writes every record appended so far through to the underlying
// io.Writer without ending the trace, so a Reader opened with
// NewReaderAt at an earlier Pos can decode up to the current position
// while recording goes on.
func (tw *Writer) Flush() error {
	if tw.err == nil && !tw.closed {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// Close writes the end marker and footer and flushes. It does not close
// the underlying io.Writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	if tw.err != nil {
		return tw.err
	}
	tw.w.WriteByte(endMarker)
	tw.uvarint(tw.count)
	tw.err = tw.w.Flush()
	return tw.err
}

// Reader decodes a trace, yielding its µops in recorded order. It
// implements prog.Stream and prog.FastForwarder, so it plugs into
// pipeline.New and ltp.RunContext exactly where the functional emulator does.
type Reader struct {
	r        *bufio.Reader
	name     string
	prevPC   uint64
	prevAddr uint64
	labels   []string
	seq      uint64
	done     bool
	err      error
}

// NewReader parses the trace header from r and returns a Reader
// positioned at the first µop.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<16), prevPC: prog.CodeBase}
	var mg [len(magic)]byte
	if _, err := io.ReadFull(tr.r, mg[:]); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if string(mg[:]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", mg)
	}
	n, err := tr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if n > maxNameLen {
		return nil, fmt.Errorf("trace: program name length %d exceeds %d", n, maxNameLen)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(tr.r, name); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	tr.name = string(name)
	return tr, nil
}

// NewReaderAt opens a Reader positioned mid-trace at a checkpoint
// previously captured with Writer.Pos, reading from r at pos.Offset.
// Decoded µops continue the recording's absolute sequence numbering
// (Seq = pos.Records onward), and the footer count is still validated
// against the whole recording, so a trace opened at any interval
// boundary detects truncation exactly like one read from the start.
// The program name is not recoverable mid-trace; Name returns "".
func NewReaderAt(r io.ReaderAt, pos Pos) *Reader {
	sec := io.NewSectionReader(r, int64(pos.Offset), 1<<62)
	tr := &Reader{
		r:        bufio.NewReaderSize(sec, 1<<16),
		prevPC:   pos.PrevPC,
		prevAddr: pos.PrevAddr,
		seq:      pos.Records,
	}
	tr.labels = append(tr.labels, pos.Labels...)
	return tr
}

// Name returns the recorded program's name ("" for a Reader opened
// mid-trace with NewReaderAt).
func (tr *Reader) Name() string { return tr.name }

// Err returns the decode error, if the trace turned out to be corrupt
// or truncated. It is nil after a clean end-of-trace.
func (tr *Reader) Err() error { return tr.err }

// Seq returns the sequence number of the next µop — for a Reader
// opened at the start, the number decoded so far; for one opened with
// NewReaderAt, the absolute position within the whole recording.
func (tr *Reader) Seq() uint64 { return tr.seq }

func (tr *Reader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := tr.r.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 63 && b > 1 {
			return 0, errors.New("varint overflow")
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func (tr *Reader) fail(err error) bool {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = ErrTruncated
	}
	tr.err = err
	tr.done = true
	return false
}

func (tr *Reader) readReg() (isa.Reg, error) {
	b, err := tr.r.ReadByte()
	if err != nil {
		return isa.NoReg, err
	}
	if b > maxRegByte {
		return isa.NoReg, fmt.Errorf("trace: invalid register byte %d", b)
	}
	if b == regNoneByte {
		return isa.NoReg, nil
	}
	return isa.Reg(b) - 1, nil
}

// Next decodes one µop into *u, returning false at end of trace or on
// a decode error (distinguish with Err).
func (tr *Reader) Next(u *isa.Uop) bool {
	if tr.done {
		return false
	}
	head, err := tr.r.ReadByte()
	if err != nil {
		return tr.fail(err)
	}
	if head == endMarker {
		count, err := tr.uvarint()
		if err != nil {
			return tr.fail(err)
		}
		if count != tr.seq {
			return tr.fail(fmt.Errorf("trace: footer count %d, decoded %d records", count, tr.seq))
		}
		tr.done = true
		return false
	}
	op := isa.Op(head &^ (flagMask | 0xC0))
	if head&^(flagMask|0x0F) != 0 || op >= isa.NumOps {
		return tr.fail(fmt.Errorf("trace: invalid record head %#x", head))
	}
	*u = isa.Uop{Seq: tr.seq, Op: op, Size: 8}
	tr.seq++

	d, err := tr.uvarint()
	if err != nil {
		return tr.fail(err)
	}
	u.PC = tr.prevPC + uint64(unzigzag(d))
	tr.prevPC = u.PC
	if u.Dst, err = tr.readReg(); err != nil {
		return tr.fail(err)
	}
	if u.Src1, err = tr.readReg(); err != nil {
		return tr.fail(err)
	}
	if u.Src2, err = tr.readReg(); err != nil {
		return tr.fail(err)
	}
	if op.IsMem() {
		d, err := tr.uvarint()
		if err != nil {
			return tr.fail(err)
		}
		u.Addr = tr.prevAddr + uint64(unzigzag(d))
		tr.prevAddr = u.Addr
	}
	if op == isa.Branch {
		d, err := tr.uvarint()
		if err != nil {
			return tr.fail(err)
		}
		u.Target = u.PC + prog.InstBytes + uint64(unzigzag(d))
		u.Taken = head&flagTaken != 0
	}
	if head&flagLabel != 0 {
		ref, err := tr.uvarint()
		if err != nil {
			return tr.fail(err)
		}
		switch {
		case ref < uint64(len(tr.labels)):
			u.Label = tr.labels[ref]
		case ref == uint64(len(tr.labels)):
			if ref >= maxLabelTab {
				return tr.fail(fmt.Errorf("trace: label table exceeds %d entries", maxLabelTab))
			}
			n, err := tr.uvarint()
			if err != nil {
				return tr.fail(err)
			}
			if n > maxLabelLen {
				return tr.fail(fmt.Errorf("trace: label length %d exceeds %d", n, maxLabelLen))
			}
			lbl := make([]byte, n)
			if _, err := io.ReadFull(tr.r, lbl); err != nil {
				return tr.fail(err)
			}
			tr.labels = append(tr.labels, string(lbl))
			u.Label = string(lbl)
		default:
			return tr.fail(fmt.Errorf("trace: label reference %d beyond table of %d", ref, len(tr.labels)))
		}
	}
	return true
}

// FastForward replays up to n µops through touch (which may be nil)
// without any timing model — the trace analog of the emulator's
// functional fast warm-up. It returns the number of µops replayed.
func (tr *Reader) FastForward(n uint64, touch func(u *isa.Uop)) uint64 {
	return fastForward(tr, n, touch)
}

var (
	_ prog.Stream        = (*Reader)(nil)
	_ prog.FastForwarder = (*Reader)(nil)
)
