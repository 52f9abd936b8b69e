package cache

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ltp/internal/store"
)

// mapBacking is an in-memory Backing for behavioural tests.
type mapBacking struct {
	mu      sync.Mutex
	m       map[string]any
	lookups int
	stores  int
}

func newMapBacking() *mapBacking { return &mapBacking{m: map[string]any{}} }

func (b *mapBacking) Lookup(key string) (any, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lookups++
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBacking) Store(key string, val any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[key] = val
}

func TestBackingWarmsCache(t *testing.T) {
	b := newMapBacking()
	b.m["k"] = "persisted"
	c := New(4)
	c.SetBacking(b)

	nocompute := func(context.Context) (any, error) {
		t.Error("compute ran for a key the backing holds")
		return nil, nil
	}
	v, outcome, err := c.Do(bg, "k", nocompute)
	if err != nil || v != "persisted" || outcome != StoreHit {
		t.Fatalf("Do = %v, %v, %v; want persisted, StoreHit", v, outcome, err)
	}
	if outcome.String() != "store" {
		t.Fatalf("StoreHit renders %q", outcome.String())
	}
	// Second call: the store hit warmed the in-memory LRU, so the
	// backing is not consulted again.
	v, outcome, err = c.Do(bg, "k", nocompute)
	if err != nil || v != "persisted" || outcome != Hit {
		t.Fatalf("second Do = %v, %v, %v; want persisted, Hit", v, outcome, err)
	}
	if b.lookups != 1 {
		t.Fatalf("backing consulted %d times, want 1", b.lookups)
	}
	st := c.Stats()
	if st.StoreHits != 1 || st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one store hit, one memory hit, zero misses", st)
	}
}

func TestBackingMissComputesAndPersists(t *testing.T) {
	b := newMapBacking()
	c := New(4)
	c.SetBacking(b)

	v, outcome, err := c.Do(bg, "k", func(context.Context) (any, error) { return 42, nil })
	if err != nil || v != 42 || outcome != Miss {
		t.Fatalf("Do = %v, %v, %v; want 42, Miss", v, outcome, err)
	}
	// The computed value must be durable by the time Do returns.
	if got, ok := b.m["k"]; !ok || got != 42 {
		t.Fatalf("backing holds %v, %v; want 42 persisted before Do returned", got, ok)
	}
	if st := c.Stats(); st.Misses != 1 || st.StoreHits != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBackingSharedJoinersReportShared(t *testing.T) {
	b := newMapBacking()
	gate := make(chan struct{})
	b.m["k"] = "persisted"
	c := New(4)
	slow := &gatedBacking{inner: b, gate: gate}
	c.SetBacking(slow)

	const joiners = 4
	outcomes := make([]Outcome, joiners)
	var entered, wg sync.WaitGroup
	entered.Add(joiners)
	go func() {
		// Release the gated lookup only after every caller is inside Do
		// (the brief sleep lets the last ones join the flight; stragglers
		// degrade to Hit, which the assertion below tolerates).
		entered.Wait()
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			v, o, err := c.Do(bg, "k", func(context.Context) (any, error) { return nil, errors.New("no") })
			if err != nil || v != "persisted" {
				t.Errorf("joiner %d: %v, %v", i, v, err)
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()
	var stores int
	for _, o := range outcomes {
		switch o {
		case StoreHit:
			stores++
		case Shared, Hit: // joiners share the flight; a straggler hits memory
		default:
			t.Fatalf("unexpected outcome %v among %v", o, outcomes)
		}
	}
	if stores != 1 {
		t.Fatalf("outcomes %v: want exactly one StoreHit (the flight initiator)", outcomes)
	}
}

// gatedBacking blocks the first Lookup until gate closes, so a test
// can pile joiners onto one in-flight store lookup.
type gatedBacking struct {
	inner *mapBacking
	gate  chan struct{}
	once  sync.Once
}

func (g *gatedBacking) Lookup(key string) (any, bool) {
	g.once.Do(func() { <-g.gate })
	return g.inner.Lookup(key)
}

func (g *gatedBacking) Store(key string, val any) { g.inner.Store(key, val) }

// storeAdapter bridges a real internal/store to Backing the same way
// the engine does: JSON payloads keyed by content address.
type storeAdapter struct{ st *store.Store }

func (a storeAdapter) Lookup(key string) (any, bool) {
	payload, ok := a.st.Get(key)
	if !ok {
		return nil, false
	}
	var v string
	if err := json.Unmarshal(payload, &v); err != nil {
		return nil, false
	}
	return v, true
}

func (a storeAdapter) Store(key string, val any) {
	s, ok := val.(string)
	if !ok {
		return
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return
	}
	_ = a.st.Put(key, payload)
}

// TestErrorRetryStoresExactlyOneRecord is the ISSUE's error-retry
// audit against a real on-disk store: a failed computation must leave
// no record, the successful retry exactly one, and a third call must
// not re-compute.
func TestErrorRetryStoresExactlyOneRecord(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "retry.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := New(4)
	c.SetBacking(storeAdapter{st})

	boom := errors.New("simulation failed")
	if _, outcome, err := c.Do(bg, "k", func(context.Context) (any, error) { return nil, boom }); !errors.Is(err, boom) || outcome != Miss {
		t.Fatalf("failed Do = %v, %v", outcome, err)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("failed computation appended %d records, want 0", n)
	}

	v, outcome, err := c.Do(bg, "k", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || v != "ok" || outcome != Miss {
		t.Fatalf("retry Do = %v, %v, %v; want ok, Miss (errors are not cached)", v, outcome, err)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("store holds %d records after the successful retry, want exactly 1", n)
	}

	v, outcome, err = c.Do(bg, "k", func(context.Context) (any, error) {
		t.Error("third call re-computed")
		return nil, nil
	})
	if err != nil || v != "ok" || outcome != Hit {
		t.Fatalf("third Do = %v, %v, %v; want memory hit", v, outcome, err)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("store grew to %d records, want 1", n)
	}
}

// TestBackingEvictionRefetch: an entry evicted from the LRU is re-
// served from the backing layer (StoreHit), not re-computed.
func TestBackingEvictionRefetch(t *testing.T) {
	b := newMapBacking()
	c := New(1) // single-entry LRU forces eviction
	c.SetBacking(b)

	compute := func(v string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}
	if _, o, _ := c.Do(bg, "a", compute("va")); o != Miss {
		t.Fatalf("first a: %v", o)
	}
	if _, o, _ := c.Do(bg, "b", compute("vb")); o != Miss { // evicts a
		t.Fatalf("first b: %v", o)
	}
	v, o, err := c.Do(bg, "a", func(context.Context) (any, error) {
		t.Error("evicted entry re-computed despite the backing copy")
		return nil, nil
	})
	if err != nil || v != "va" || o != StoreHit {
		t.Fatalf("refetch = %v, %v, %v; want va, StoreHit", v, o, err)
	}
	// Two evictions: b evicted a, and the refetched a evicted b.
	if st := c.Stats(); st.Misses != 2 || st.StoreHits != 1 || st.Evictions != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBackingPanicIsContained: a panicking Lookup becomes the waiter's
// error — through Do and through DoBatch alike, with nothing computed
// or stored; a panicking Store is swallowed (the in-memory result
// already serves the waiters).
func TestBackingPanicIsContained(t *testing.T) {
	c := New(4)
	b := &panicBacking{}
	c.SetBacking(b)
	if _, _, err := c.Do(bg, "k", func(context.Context) (any, error) { return "v", nil }); err == nil {
		t.Fatal("panicking Lookup did not surface as an error")
	}
	computed := false
	_, _, errs := c.DoBatch(bg, []string{"kb"}, func(context.Context, []int) ([]any, []error) {
		computed = true
		return []any{"v"}, []error{nil}
	})
	if errs[0] == nil {
		t.Fatal("panicking Lookup did not surface as a DoBatch lane error")
	}
	if computed || b.stores != 0 {
		t.Fatalf("DoBatch computed (%v) and stored %d records after a panicking Lookup", computed, b.stores)
	}
	if st := c.Stats(); st.Len != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v: want two failed misses, nothing cached", st)
	}
	// Detach the panicking lookup but keep the panicking Store: compute
	// succeeds and the Store panic must not kill the flight.
	c.SetBacking(storePanicBacking{})
	v, _, err := c.Do(bg, "k2", func(context.Context) (any, error) { return "v2", nil })
	if err != nil || v != "v2" {
		t.Fatalf("Do with panicking Store = %v, %v", v, err)
	}
}

type panicBacking struct{ stores int }

func (*panicBacking) Lookup(string) (any, bool) { panic("lookup boom") }
func (b *panicBacking) Store(string, any)       { b.stores++ }

type storePanicBacking struct{}

func (storePanicBacking) Lookup(string) (any, bool) { return nil, false }
func (storePanicBacking) Store(string, any)         { panic("store boom") }
