package mem

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// hierState reads every set of every cache of h, as an access would see
// it: the observable state copy-on-write must keep apart.
func hierState(h *Hierarchy) [][]line {
	var out [][]line
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		st := make([]line, 0, c.sets*c.ways)
		for s := 0; s < c.sets; s++ {
			st = append(st, c.set(uint64(s))...)
		}
		out = append(out, st)
	}
	return out
}

// touch warms h with n seeded accesses (loads, stores and fetches)
// spread over 64 MB, so every set of every cache sees traffic.
func touch(h *Hierarchy, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(64<<20)) &^ 7
		switch rng.Intn(8) {
		case 0:
			h.WarmFetch(0x40_0000 + uint64(rng.Intn(1<<16))*4)
		case 1, 2:
			h.Warm(0x1000, addr, true)
		default:
			h.Warm(0x2000+uint64(rng.Intn(64))*4, addr, false)
		}
	}
}

func warmHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h := NewHierarchy(DefaultConfig())
	touch(h, 1, 50_000)
	return h
}

func sameState(a, b [][]line) bool { return reflect.DeepEqual(a, b) }

func TestCacheCloneWriteOriginal(t *testing.T) {
	h := warmHierarchy(t)
	want := hierState(h)
	cp := h.Clone()
	touch(h, 2, 50_000)
	if sameState(hierState(h), want) {
		t.Fatal("warming the original changed nothing; the test is vacuous")
	}
	if !sameState(hierState(cp), want) {
		t.Error("writing the original changed its clone")
	}
}

func TestCacheCloneWriteCopy(t *testing.T) {
	h := warmHierarchy(t)
	want := hierState(h)
	cp := h.Clone()
	touch(cp, 2, 50_000)
	if sameState(hierState(cp), want) {
		t.Fatal("warming the clone changed nothing; the test is vacuous")
	}
	if !sameState(hierState(h), want) {
		t.Error("writing the clone changed the original")
	}
}

// TestCacheConcurrentClones clones one sealed hierarchy from many
// goroutines at once, as batched lanes do; each clone then evolves on
// its own. Run it under -race.
func TestCacheConcurrentClones(t *testing.T) {
	h := warmHierarchy(t)
	want := hierState(h)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp := h.Clone()
			if !sameState(hierState(cp), want) {
				errs[i] = "a fresh clone differs from the original"
				return
			}
			touch(cp, int64(10+i), 5_000)
			cp.Release()
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("clone %d: %s", i, e)
		}
	}
	if !sameState(hierState(h), want) {
		t.Error("concurrent clones changed the original")
	}
}

// TestCacheCloneKeepsWarmingSource follows the sampled tier: the source
// is cloned at every interval boundary and keeps warming in between, so
// it copies shared sets on write too. Short warm-ups leave most of the
// L2 and L3 sets shared, so the next clone copies the source's private
// sets; long ones fold them into a fresh array first. Every clone must
// keep exactly the state it was taken with, whatever the source and the
// other clones do later.
func TestCacheCloneKeepsWarmingSource(t *testing.T) {
	h := warmHierarchy(t)
	var snaps [][][]line
	var clones []*Hierarchy
	for k := 0; k < 8; k++ {
		snaps = append(snaps, hierState(h))
		clones = append(clones, h.Clone())
		n := 200
		if k%3 == 2 {
			n = 20_000
		}
		touch(h, int64(100+k), n)
	}
	for k, cp := range clones {
		if !sameState(hierState(cp), snaps[k]) {
			t.Fatalf("clone %d drifted while the source kept warming", k)
		}
	}
	for j, cp := range clones {
		touch(cp, int64(200+j), 5_000)
		for k, other := range clones[j+1:] {
			if !sameState(hierState(other), snaps[j+1+k]) {
				t.Fatalf("writing clone %d changed clone %d", j, j+1+k)
			}
		}
	}
}

// TestHierarchyCloneAllocs bounds what cloning a warm Table 1 hierarchy
// allocates: the caches share their tag arrays instead of copying
// ~700 KB of them.
func TestHierarchyCloneAllocs(t *testing.T) {
	h := warmHierarchy(t)
	h.Clone() // the first clone marks the arrays shared
	const clones = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < clones; i++ {
		h.Clone()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / clones; per > 64<<10 {
		t.Errorf("Hierarchy.Clone allocates %d bytes, want <= 64 KB", per)
	}
}
