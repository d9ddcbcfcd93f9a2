// Package cluster shards uafserve across replicas: a coordinator
// terminates HTTP, computes the same content-addressed keys the cache
// uses, and routes each request over a consistent-hash ring to one of N
// workers with plain net/http. There is one failover policy: a request
// the owner cannot take goes once to its ring successor, and health
// probes take a dead worker off the ring; nothing retries, backs off or
// breaks circuits. Workers are the unmodified single-process server
// core behind the same /v1/ wire contract, so every byte the cluster
// serves is byte-identical to what one process would have served —
// the determinism contract extends from cache keys to routing.
//
// The ring hashes logical member IDs (not addresses), so a fleet
// rebuild with the same member names routes identically even when
// every port changed; membership changes remap only the ~1/N of the
// keyspace that consistent hashing requires (see TestRingRebalance).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"uafcheck/internal/cache"
)

// DefaultVnodes is how many virtual nodes each member projects onto
// the ring when the caller passes vnodes <= 0. More vnodes smooth the
// keyspace split at the cost of a larger (still tiny) routing table.
const DefaultVnodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over logical member IDs.
// Membership changes build a new Ring (ring construction for a fleet
// of tens of members is microseconds), which keeps lookups lock-free
// behind an atomic pointer swap at the call site.
type Ring struct {
	points  []ringPoint
	members []string // sorted, unique
}

// NewRing builds a ring from member IDs (duplicates ignored) with the
// given virtual-node count per member (<= 0 means DefaultVnodes). A
// ring with no members is valid; lookups on it return nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make(map[string]bool, len(members))
	for _, m := range members {
		uniq[m] = true
	}
	r := &Ring{
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
		members: make([]string, 0, len(uniq)),
	}
	for m := range uniq {
		r.members = append(r.members, m)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, i), member: m})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (vanishingly rare) break by member ID so the ring
		// is deterministic regardless of construction order.
		return a.member < b.member
	})
	return r
}

// pointHash positions one virtual node: the first 8 bytes of
// SHA-256("ring/<member>#<vnode>"), matching the hash family of the
// cache keys the ring routes.
func pointHash(member string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("ring/%s#%d", member, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash projects a cache key onto the circle: its first 8 bytes.
// The key is already a SHA-256, so no re-hashing is needed.
func keyHash(k cache.Key) uint64 {
	return binary.BigEndian.Uint64(k[:8])
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Lookup returns the member owning k, or "" for an empty ring.
func (r *Ring) Lookup(k cache.Key) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(keyHash(k))].member
}

// LookupN returns up to n distinct members in ring order starting from
// k's owner — the owner first, then the failover successors a caller
// tries when the owner is down. n > Len() returns every member.
func (r *Ring) LookupN(k cache.Key, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.successor(keyHash(k)); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// successor finds the index of the first point at or clockwise of h,
// wrapping past the top of the circle.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
