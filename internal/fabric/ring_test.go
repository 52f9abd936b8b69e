package fabric

// Property tests for the consistent-hash ring: placement must be a
// pure function of the member set (restart-stable), churn must move
// only the ~K/N keys whose arcs changed hands, and load must spread
// roughly evenly — the properties the fabric's cache-affinity story
// rests on.

import (
	"fmt"
	"testing"
)

// ringKeys fabricates K cell-hash-shaped keys.
func ringKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("rs2:%08x", i)
	}
	return keys
}

// placements maps every key to its home member.
func placements(r *ring, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = r.lookup(k)
	}
	return out
}

// TestRingJoinMovesOnlyItsShare checks the rebalance bound: when a
// member joins an N-member ring, only keys that now belong to the
// joiner may move — nothing shuffles between survivors — and the
// moved fraction stays near K/(N+1).
func TestRingJoinMovesOnlyItsShare(t *testing.T) {
	const K = 2000
	keys := ringKeys(K)
	r := newRing()
	members := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	for _, m := range members {
		r.add(m)
	}
	before := placements(r, keys)

	r.add("http://f")
	after := placements(r, keys)

	moved := 0
	for _, k := range keys {
		if before[k] == after[k] {
			continue
		}
		moved++
		if after[k] != "http://f" {
			t.Fatalf("key %s moved between survivors: %s -> %s", k, before[k], after[k])
		}
	}
	fair := K / (len(members) + 1)
	if moved == 0 || moved > 2*fair {
		t.Fatalf("join moved %d of %d keys; want (0, %d] (~K/N)", moved, K, 2*fair)
	}

	// Leaving must restore the original placement exactly: the ring has
	// no history, only the member set.
	r.remove("http://f")
	restored := placements(r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %s did not return home after leave: %s vs %s", k, restored[k], before[k])
		}
	}
}

// TestRingLeaveMovesOnlyOrphans checks the inverse churn bound: when a
// member leaves, only its own keys move.
func TestRingLeaveMovesOnlyOrphans(t *testing.T) {
	const K = 2000
	keys := ringKeys(K)
	r := newRing()
	for _, m := range []string{"http://a", "http://b", "http://c", "http://d"} {
		r.add(m)
	}
	before := placements(r, keys)

	r.remove("http://b")
	after := placements(r, keys)
	for _, k := range keys {
		if before[k] == "http://b" {
			if after[k] == "http://b" {
				t.Fatalf("key %s still placed on the removed member", k)
			}
			continue
		}
		if after[k] != before[k] {
			t.Fatalf("key %s moved although its owner stayed: %s -> %s", k, before[k], after[k])
		}
	}
}

// TestRingPlacementStableAcrossRestart checks placement is a pure
// function of the member set: two rings built independently — in
// different insertion orders — agree on every key, which is what lets
// a restarted coordinator keep worker caches warm.
func TestRingPlacementStableAcrossRestart(t *testing.T) {
	keys := ringKeys(1000)
	a := newRing()
	b := newRing()
	for _, m := range []string{"http://a", "http://b", "http://c"} {
		a.add(m)
	}
	for _, m := range []string{"http://c", "http://a", "http://b"} {
		b.add(m)
	}
	for _, k := range keys {
		if a.lookup(k) != b.lookup(k) {
			t.Fatalf("rings disagree on %s: %s vs %s", k, a.lookup(k), b.lookup(k))
		}
	}
}

// TestRingLookupOrderWalksEveryMember checks the failover sequence:
// home first, every member exactly once, deterministic.
func TestRingLookupOrderWalksEveryMember(t *testing.T) {
	r := newRing()
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	for _, m := range members {
		r.add(m)
	}
	for _, k := range ringKeys(100) {
		order := r.lookupOrder(k, 0)
		if len(order) != len(members) {
			t.Fatalf("lookupOrder(%s) has %d members; want %d", k, len(order), len(members))
		}
		if order[0] != r.lookup(k) {
			t.Fatalf("lookupOrder(%s) does not start at the home", k)
		}
		seen := make(map[string]bool)
		for _, m := range order {
			if seen[m] {
				t.Fatalf("lookupOrder(%s) repeats %s", k, m)
			}
			seen[m] = true
		}
	}
}

// TestRingBalance checks the vnode count spreads load sanely: with
// 64 vnodes no member of a 5-member ring strays wildly
// from its fair fifth.
func TestRingBalance(t *testing.T) {
	const K = 5000
	keys := ringKeys(K)
	r := newRing()
	members := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	for _, m := range members {
		r.add(m)
	}
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.lookup(k)]++
	}
	fair := K / len(members)
	for _, m := range members {
		if counts[m] < fair/3 || counts[m] > fair*5/2 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d); distribution too skewed: %v",
				m, counts[m], K, fair, counts)
		}
	}
}
