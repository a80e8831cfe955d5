// Package fleet is the horizontal serving tier: an HTTP router that
// spreads inference traffic over N etaserve replicas. Session ids map
// onto replicas through a consistent-hash ring with virtual nodes (so
// membership churn remaps only ~1/N of the session key space),
// stateless requests spread by body digest with a
// power-of-two-choices tiebreak, a prober ejects unhealthy replicas
// with hysteresis and drains their sessions to ring successors, and a
// rolling checkpoint hot-swap rolls the fleet one replica at a time
// with zero dropped requests. See DESIGN.md §14.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
)

// defaultVNodes is the virtual-node count per member: enough that the
// largest member owns within a few percent of the mean arc share
// (relative spread ~1/sqrt(vnodes)), cheap enough that rebuilding on
// membership change is trivial.
const defaultVNodes = 128

// fnv1a64 is FNV-1a over s — stdlib hash/fnv allocates a hash.Hash per
// use; routing hashes on every request, so the 4-line loop is inlined
// here instead. Raw FNV-1a has weak avalanche on short near-identical
// strings (vnode keys differ only in a trailing counter), which skews
// ring arcs badly, so the result goes through a 64-bit finalizer
// (splitmix64's mixer) before use.
func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node: a position on the 64-bit ring owned by a
// member.
type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring with virtual nodes. It is a value
// the router swaps atomically under its mutex; the ring itself is not
// concurrency-safe. Keys map to the owning member of the first vnode
// clockwise from the key's hash, so removing a member reassigns only
// the arcs that member owned (~1/N of the key space) and adding one
// claims only the arcs it now owns — every other key keeps its
// replica, which is what keeps session stickiness cheap under churn.
type Ring struct {
	vnodes int
	points []point // sorted by hash
	names  map[string]bool
}

// NewRing builds an empty ring with the given virtual-node count per
// member (0 = 128).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{vnodes: vnodes, names: make(map[string]bool)}
}

// Add inserts a member's virtual nodes; adding a present member is a
// no-op.
func (r *Ring) Add(member string) {
	if r.names[member] {
		return
	}
	r.names[member] = true
	for i := 0; i < r.vnodes; i++ {
		h := fnv1a64(member + "#" + strconv.Itoa(i))
		r.points = append(r.points, point{hash: h, member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual nodes; removing an absent member
// is a no-op.
func (r *Ring) Remove(member string) {
	if !r.names[member] {
		return
	}
	delete(r.names, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.names) }

// Lookup returns the member owning key ("" on an empty ring).
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// LookupN returns up to n distinct members in clockwise order from
// key's position: the owner first, then its successors — the failover
// and session-drain order.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search finds the index of the first vnode at or clockwise of key's
// hash.
func (r *Ring) search(key string) int {
	h := fnv1a64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Clone returns an independent copy — how the router rebuilds
// membership without mutating the ring a concurrent Lookup may hold.
func (r *Ring) Clone() *Ring {
	c := &Ring{vnodes: r.vnodes,
		points: append([]point(nil), r.points...),
		names:  make(map[string]bool, len(r.names))}
	for m := range r.names {
		c.names[m] = true
	}
	return c
}

// RemapFraction measures the share of a synthetic key space whose
// owner differs between two rings — the consistency property the
// bounded remap acceptance test pins (ejecting one of N members must
// move ≤ 1.5/N of keys).
func RemapFraction(before, after *Ring, probes int) float64 {
	if probes <= 0 {
		probes = 4096
	}
	moved := 0
	for i := 0; i < probes; i++ {
		k := "probe-" + strconv.Itoa(i)
		if before.Lookup(k) != after.Lookup(k) {
			moved++
		}
	}
	return float64(moved) / float64(probes)
}

// String summarizes the ring for /fleet output.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{members=%d vnodes=%d points=%d}", len(r.names), r.vnodes, len(r.points))
}
