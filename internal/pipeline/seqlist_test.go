package pipeline

import (
	"cmp"
	"slices"
	"testing"

	"ltp/internal/isa"
)

// FuzzSeqList drives a SeqList through a program of (op, arg) byte
// pairs and checks it against a plain sorted slice after every step:
//
//	0 insert the youngest (seq above every one present)
//	1 insert seq arg, anywhere in program order (skipped when present)
//	2 remove the entry at index arg mod Len: head, middle or tail
//	3 truncate from the seq of the entry at index arg mod (Len+1)
//	4 sweep the first arg mod (Len+1) entries, keeping those whose bit
//	  is set in the next byte, then close
func FuzzSeqList(f *testing.F) {
	// Out-of-order inserts only, as late LSQ allocation makes them: the
	// list stays sorted.
	f.Add([]byte{1, 5, 1, 2, 1, 9, 1, 1, 1, 200, 1, 3, 1, 9, 1, 0, 1, 255, 1, 4})
	// Four appends fill an array of four, a head removal opens room at
	// the front, and the next append finds the array full with off > 0.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0})
	// Removals at the head, middle and tail, sweeps whose close moves the
	// kept run right, then the unvisited rest left, then nothing, and a
	// squash that empties the list.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 2, 3, 2, 5, 4, 3, 0x02, 0, 0, 4, 7, 0xfe, 3, 2, 1, 4, 2, 4,
		0, 0, 0, 0, 0, 0, 4, 4, 0xf7, 4, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pipe := testPipe()
		var l SeqList
		var model []Ref
		bySeq := func(r Ref, seq uint64) int { return cmp.Compare(r.Seq, seq) }
		insert := func(seq uint64) {
			f := pipe.NewInflight(isa.Uop{Seq: seq})
			l.Insert(f)
			i, _ := slices.BinarySearchFunc(model, seq, bySeq)
			model = slices.Insert(model, i, f.Ref())
		}
		youngest := func() uint64 {
			if len(model) == 0 {
				return 0
			}
			return model[len(model)-1].Seq
		}
		for pc := 0; pc+1 < len(data); pc += 2 {
			op, arg := data[pc]%5, int(data[pc+1])
			switch op {
			case 0:
				insert(youngest() + 1)
			case 1:
				if _, present := slices.BinarySearchFunc(model, uint64(arg), bySeq); !present {
					insert(uint64(arg))
				}
			case 2:
				if len(model) == 0 {
					continue
				}
				i := arg % len(model)
				l.Remove(pipe.Rec(model[i].H))
				model = slices.Delete(model, i, i+1)
			case 3:
				i := arg % (len(model) + 1)
				from := youngest() + 1
				if i < len(model) {
					from = model[i].Seq
				}
				var dropped []Ref
				l.TruncateFrom(from, func(r Ref) { dropped = append(dropped, r) })
				slices.Reverse(dropped)
				if !slices.Equal(dropped, model[i:]) {
					t.Fatalf("step %d: TruncateFrom(%d) dropped %v, want %v youngest first", pc/2, from, dropped, model[i:])
				}
				model = model[:i]
			case 4:
				var keep byte
				if pc+2 < len(data) {
					keep = data[pc+2]
					pc++
				}
				visits := arg % (len(model) + 1)
				var kept []Ref
				s := l.Sweep()
				for i := 0; i < visits; i++ {
					if s.Peek() != model[i] {
						t.Fatalf("step %d: sweep visits %v, want %v", pc/2, s.Peek(), model[i])
					}
					if keep&(1<<(i%8)) != 0 {
						s.Keep()
						kept = append(kept, model[i])
					} else {
						s.Drop()
					}
				}
				s.Close()
				model = append(kept, model[visits:]...)
			}
			if got := l.Items(); !slices.Equal(got, model) {
				t.Fatalf("step %d (op %d, arg %d): list %v, want %v", pc/2, op, arg, got, model)
			}
			if l.Len() != len(model) {
				t.Fatalf("step %d: Len %d, want %d", pc/2, l.Len(), len(model))
			}
			want := Ref{}
			if len(model) > 0 {
				want = model[0]
			}
			if l.Front() != want {
				t.Fatalf("step %d: Front %v, want %v", pc/2, l.Front(), want)
			}
		}
	})
}
