package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bg shortens the no-cancellation context used by most tests.
var bg = context.Background()

func TestHitMissEviction(t *testing.T) {
	c := New(2)
	mk := func(k string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return "v:" + k, nil }
	}

	v, out, err := c.Do(bg, "a", mk("a"))
	if err != nil || out != Miss || v != "v:a" {
		t.Fatalf("first Do = %v, %v, %v; want v:a, miss, nil", v, out, err)
	}
	v, out, _ = c.Do(bg, "a", mk("a"))
	if out != Hit || v != "v:a" {
		t.Fatalf("second Do = %v, %v; want v:a, hit", v, out)
	}

	c.Do(bg, "b", mk("b"))
	c.Do(bg, "c", mk("c")) // evicts "a" (LRU)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("a survived eviction from a 2-entry cache")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatalf("b evicted; want a evicted (LRU order)")
	}

	// Touching "b" must protect it from the next eviction.
	c.Do(bg, "b", mk("b"))
	c.Do(bg, "d", mk("d")) // evicts "c"
	if _, ok := c.Get("c"); ok {
		t.Fatalf("c survived; recently used b should have been kept instead")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 || st.Len != 2 || st.Cap != 2 {
		t.Fatalf("stats = %+v; want hits=2 misses=4 evictions=2 len=2 cap=2", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	calls := 0
	fail := func(context.Context) (any, error) { calls++; return nil, boom }
	if _, _, err := c.Do(bg, "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatalf("failed compute was stored")
	}
	// A later Do retries (errors are not negative-cached).
	if _, out, err := c.Do(bg, "k", fail); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("retry = %v, %v; want miss, boom", out, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times; want 2", calls)
	}
}

// TestPanicDoesNotWedgeKey checks a panicking computation resolves the
// in-flight entry: every waiter gets an error (the panic is contained
// on the flight goroutine, not re-raised on a random waiter), and a
// later Do retries instead of blocking forever.
func TestPanicDoesNotWedgeKey(t *testing.T) {
	c := New(4)
	_, out, err := c.Do(bg, "k", func(context.Context) (any, error) { panic("boom") })
	if out != Miss || err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Do over a panicking compute = %v, %v; want miss + panic error", out, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("panicked compute was stored")
	}
	// The key must not be wedged: a retry computes fresh.
	v, out, err := c.Do(bg, "k", func(context.Context) (any, error) { return 7, nil })
	if err != nil || out != Miss || v != 7 {
		t.Fatalf("retry after panic = %v, %v, %v; want 7, miss, nil", v, out, err)
	}
}

// TestSingleFlight holds the service's core guarantee: N concurrent
// identical requests execute the computation exactly once. Run under
// -race this also exercises the publication of the shared value.
func TestSingleFlight(t *testing.T) {
	c := New(8)
	const n = 32
	var executions atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, out, err := c.Do(bg, "cell", func(context.Context) (any, error) {
				executions.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	close(start)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("computation executed %d times for %d concurrent callers; want 1", got, n)
	}
	var misses int
	for i := 0; i < n; i++ {
		if results[i] != 42 {
			t.Fatalf("caller %d got %v; want 42", i, results[i])
		}
		if outcomes[i] == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers report miss; want exactly 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != n-1 {
		t.Fatalf("stats = %+v; want 1 miss and %d hit+shared", st, n-1)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 32; j++ {
				k := fmt.Sprintf("k%d", j%8)
				v, _, err := c.Do(bg, k, func(context.Context) (any, error) { return "v" + k, nil })
				if err != nil || v != "v"+k {
					t.Errorf("Do(%s) = %v, %v", k, v, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != 8 {
		t.Fatalf("misses = %d; want 8 (one per distinct key)", st.Misses)
	}
}

// TestWaiterCancelDoesNotPoison holds the v2 single-flight guarantee:
// cancelling one of N waiters returns that waiter's context error
// promptly, the computation keeps running for the survivors, the
// result is stored, and a later Do hits.
func TestWaiterCancelDoesNotPoison(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return 99, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	type res struct {
		v   any
		out Outcome
		err error
	}
	leaderCh := make(chan res, 1)
	go func() {
		v, out, err := c.Do(bg, "k", compute)
		leaderCh <- res{v, out, err}
	}()
	<-started

	// Two more waiters join; one of them carries a cancellable ctx.
	ctx, cancel := context.WithCancel(bg)
	canceledCh := make(chan res, 1)
	go func() {
		v, out, err := c.Do(ctx, "k", compute)
		canceledCh <- res{v, out, err}
	}()
	survivorCh := make(chan res, 1)
	go func() {
		v, out, err := c.Do(bg, "k", compute)
		survivorCh <- res{v, out, err}
	}()

	// Give the joiners a beat to attach, then cancel one.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case r := <-canceledCh:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled waiter err = %v; want context.Canceled", r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}

	// The computation must still resolve for the survivors.
	close(release)
	for _, ch := range []chan res{leaderCh, survivorCh} {
		select {
		case r := <-ch:
			if r.err != nil || r.v != 99 {
				t.Fatalf("survivor = %+v; want 99, nil", r)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("survivor never resolved")
		}
	}

	// The entry was stored — no poisoning.
	if v, out, err := c.Do(bg, "k", compute); err != nil || out != Hit || v != 99 {
		t.Fatalf("post-cancel Do = %v, %v, %v; want 99, hit, nil", v, out, err)
	}
}

// TestAllWaitersCancelAbortsCompute checks the reclamation side: when
// every waiter detaches, the compute context is cancelled, nothing is
// stored, and a later Do recomputes fresh.
func TestAllWaitersCancelAbortsCompute(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	aborted := make(chan struct{})
	calls := atomic.Int64{}
	compute := func(ctx context.Context) (any, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // simulate a cancellable simulation
			close(aborted)
			return nil, ctx.Err()
		}
		return "fresh", nil
	}

	ctx, cancel := context.WithCancel(bg)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", compute)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("sole waiter err = %v; want context.Canceled", err)
	}
	select {
	case <-aborted:
	case <-time.After(2 * time.Second):
		t.Fatal("compute context was never cancelled after the last waiter left")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("cancelled compute was stored")
	}
	// No stale cancelled state: the next Do recomputes.
	v, out, err := c.Do(bg, "k", compute)
	if err != nil || out != Miss || v != "fresh" {
		t.Fatalf("Do after abandonment = %v, %v, %v; want fresh, miss, nil", v, out, err)
	}
}

// TestAbandonedFailureCountsNoMiss holds Stats.Misses to "one real
// simulation each": a flight every waiter abandoned counts no miss when
// its compute then fails with the cancellation — single or batched —
// while one that ignores the cancellation and succeeds still counts.
func TestAbandonedFailureCountsNoMiss(t *testing.T) {
	// settle waits until every flight has resolved.
	settle := func(c *Cache) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			c.mu.Lock()
			n := len(c.inflight)
			c.mu.Unlock()
			if n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("abandoned flight never resolved")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// abandon starts a lookup under a context it then cancels, once the
	// computation has started, and waits for the caller to detach.
	abandon := func(do func(ctx context.Context), started <-chan struct{}) {
		t.Helper()
		ctx, cancel := context.WithCancel(bg)
		detached := make(chan struct{})
		go func() { defer close(detached); do(ctx) }()
		<-started
		cancel()
		<-detached
	}

	t.Run("single", func(t *testing.T) {
		c := New(8)
		started := make(chan struct{})
		abandon(func(ctx context.Context) {
			c.Do(ctx, "k", func(cctx context.Context) (any, error) {
				close(started)
				<-cctx.Done()
				return nil, cctx.Err()
			})
		}, started)
		settle(c)
		if m := c.Stats().Misses; m != 0 {
			t.Fatalf("abandoned, cancelled flight counted %d misses; want 0", m)
		}

		started = make(chan struct{})
		release := make(chan struct{})
		abandon(func(ctx context.Context) {
			c.Do(ctx, "k", func(context.Context) (any, error) {
				close(started)
				<-release // ignores the cancellation
				return "v", nil
			})
		}, started)
		close(release)
		settle(c)
		if m := c.Stats().Misses; m != 1 {
			t.Fatalf("abandoned flight that succeeded counted %d misses; want 1", m)
		}
	})

	t.Run("batch", func(t *testing.T) {
		c := New(8)
		started := make(chan struct{})
		abandon(func(ctx context.Context) {
			c.DoBatch(ctx, []string{"p", "q"}, func(bctx context.Context, miss []int) ([]any, []error) {
				close(started)
				<-bctx.Done()
				errs := make([]error, len(miss))
				for j := range errs {
					errs[j] = bctx.Err()
				}
				return make([]any, len(miss)), errs
			})
		}, started)
		settle(c)
		if m := c.Stats().Misses; m != 0 {
			t.Fatalf("abandoned, cancelled batch counted %d misses; want 0", m)
		}
	})
}
