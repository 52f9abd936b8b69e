package model

import (
	"math/rand"
	"testing"

	"ltp/internal/pipeline"
)

// refHeap is the min-heap of release times the scorer used before its
// sorted window: the reference the window must match answer for answer.
type refHeap []float64

func (h *refHeap) push(v float64) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *refHeap) popUntil(now float64) {
	for len(*h) > 0 && (*h)[0] <= now {
		last := len(*h) - 1
		(*h)[0] = (*h)[last]
		*h = (*h)[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(*h) && (*h)[l] < (*h)[best] {
				best = l
			}
			if r < len(*h) && (*h)[r] < (*h)[best] {
				best = r
			}
			if best == i {
				break
			}
			(*h)[i], (*h)[best] = (*h)[best], (*h)[i]
			i = best
		}
	}
}

func (h *refHeap) admit(t float64, capacity int) float64 {
	h.popUntil(t)
	for len(*h) >= capacity {
		t = (*h)[0]
		h.popUntil(t)
	}
	return t
}

// windowCapacities are the structure sizes the differential tests
// cover: a one-entry structure, small and paper-sized queues, and the
// unbounded configuration.
var windowCapacities = []int{1, 6, 32, pipeline.Inf}

// checkWindowMatchesHeap drives a window and the reference heap through
// the scorer's two access patterns, three bytes a step, and fails on
// the first answer that differs. Byte 0 picks the pattern: even is the
// IQ's (admit at the query time, then push a time at or after the
// admitted one), odd is the LTP's (drain to the query time, push only
// below capacity). Byte 1 advances the query time strictly, in quarter
// cycles so pushed times tie; byte 2 is how far ahead the pushed
// release lies, with the top values standing for DRAM-length waits.
func checkWindowMatchesHeap(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	w := newWindow(capacity)
	var h refHeap
	now := 0.0
	for step := 0; step+2 < len(ops); step += 3 {
		kind, dt, dv := ops[step], ops[step+1], ops[step+2]
		now += float64(1+int(dt)%16) / 4
		ahead := float64(dv) / 4
		if dv >= 240 {
			ahead = float64(dv) * 40
		}
		if kind%2 == 0 {
			got, want := w.admit(now, capacity), h.admit(now, capacity)
			if got != want {
				t.Fatalf("step %d (capacity %d): admit(%g) = %g; heap says %g", step/3, capacity, now, got, want)
			}
			now = got
			w.push(now + ahead)
			h.push(now + ahead)
		} else {
			w.popUntil(now)
			h.popUntil(now)
			if w.len() != len(h) {
				t.Fatalf("step %d (capacity %d): window holds %d after draining to %g; heap holds %d", step/3, capacity, w.len(), now, len(h))
			}
			if w.len() < capacity {
				w.push(now + ahead)
				h.push(now + ahead)
			}
		}
		if w.len() != len(h) {
			t.Fatalf("step %d (capacity %d): window holds %d; heap holds %d", step/3, capacity, w.len(), len(h))
		}
	}
}

// TestOccupancyWindowMatchesHeap is the differential fence for the
// scorer's sorted occupancy window: on random monotone admit/push
// sequences it returns the very same admit times, and holds the same
// number of entries, as the heap it replaced. The long unbounded runs
// fill the window to capacity, so its in-place compaction is crossed
// many times.
func TestOccupancyWindowMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range windowCapacities {
		steps := 4_000
		if capacity == pipeline.Inf {
			steps = 40_000
		}
		for seed := 0; seed < 8; seed++ {
			ops := make([]byte, 3*steps)
			rng.Read(ops)
			if capacity == pipeline.Inf && seed%2 == 1 {
				// Mostly IQ steps with long waits: occupancy climbs
				// to the capacity and admit has to block on it.
				for i := 0; i < len(ops); i += 3 {
					ops[i] &^= 1
					ops[i+2] |= 0xf0
				}
			}
			checkWindowMatchesHeap(t, capacity, ops)
		}
	}
}

// TestWindowAtCapacityNeverGrows pins the no-allocation bound: filled
// to capacity by the scorer's access pattern and driven far past its
// buffer length, a window keeps the buffer it was created with.
func TestWindowAtCapacityNeverGrows(t *testing.T) {
	for _, capacity := range windowCapacities {
		w := newWindow(capacity)
		buf := &w.buf[0]
		now := 0.0
		for i := 0; i < 3*len(w.buf); i++ {
			now = w.admit(now+0.25, capacity)
			w.push(now + float64(i%7)*1000)
		}
		if w.len() != capacity {
			t.Errorf("capacity %d: window holds %d; want it full", capacity, w.len())
		}
		if &w.buf[0] != buf || len(w.buf) != 2*(capacity+1) {
			t.Errorf("capacity %d: the window's buffer was replaced", capacity)
		}
	}
}

// FuzzOccupancyWindow runs the window-versus-heap differential over
// fuzzed sequences; the first byte picks the capacity.
func FuzzOccupancyWindow(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 1, 5, 250, 2, 0, 250})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 3, 255, 0, 3, 255, 0, 3, 255, 0, 3, 255, 1, 200, 0})
	f.Add([]byte{3, 0, 0, 255, 0, 0, 254, 0, 0, 253, 1, 15, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkWindowMatchesHeap(t, windowCapacities[int(data[0])%len(windowCapacities)], data[1:])
	})
}
