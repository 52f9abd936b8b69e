package fabric

// The consistent-hash ring: every worker contributes virtualNodes
// points hashed from its name, and a cell hash is owned by the first
// point at or after it (wrapping). Placement is therefore a pure
// function of the member set — stable across coordinator restarts —
// and a join or leave moves only the ~K/N cells whose arcs changed
// hands, which is what keeps worker caches warm through fleet churn.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// virtualNodes is the per-member vnode count: enough points that member
// loads stay within a few percent of even for small fleets.
const virtualNodes = 64

// ring is a consistent-hash ring with virtual nodes. Safe for
// concurrent use.
type ring struct {
	mu      sync.RWMutex
	points  []uint64          // sorted vnode positions
	owner   map[uint64]string // position -> member
	members map[string]bool
}

// newRing builds an empty ring.
func newRing() *ring {
	return &ring{
		owner:   make(map[uint64]string),
		members: make(map[string]bool),
	}
}

// ringHash maps a string to a ring position.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// add inserts a member's vnodes (a no-op if already present).
func (r *ring) add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < virtualNodes; i++ {
		p := ringHash(fmt.Sprintf("%s#%d", member, i))
		// A position collision (astronomically unlikely with 64-bit
		// points) is resolved deterministically in favour of the
		// lexically smaller member, keeping placement a pure function
		// of the member set.
		if prev, taken := r.owner[p]; taken {
			if member >= prev {
				continue
			}
		} else {
			r.points = append(r.points, p)
		}
		r.owner[p] = member
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a] < r.points[b] })
}

// remove deletes a member's vnodes (a no-op if absent).
func (r *ring) remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if r.owner[p] == member {
			delete(r.owner, p)
			continue
		}
		kept = append(kept, p)
	}
	r.points = kept
}

// size returns the member count.
func (r *ring) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// memberList returns the members, sorted.
func (r *ring) memberList() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// lookup returns the key's home member ("" on an empty ring).
func (r *ring) lookup(key string) string {
	order := r.lookupOrder(key, 1)
	if len(order) == 0 {
		return ""
	}
	return order[0]
}

// lookupOrder returns up to n distinct members in ring order starting
// from the key's position: the home first, then the deterministic
// failover sequence a coordinator walks when the home is down. n <= 0
// means every member.
func (r *ring) lookupOrder(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		m := r.owner[r.points[(start+i)%len(r.points)]]
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
