// Package fabric is the multi-node scheduling tier over N slrhd
// backends: a consistent-hash ring routing every canonical request key
// to a home backend (cross-fleet cache affinity — the same scenario
// always lands on the same instance), a stateless router with
// health-probed failover to the ring successor, a batch scatter/gather
// endpoint fanning scenario sweeps across the fleet in deterministic
// input order, and fleet-level capacity aggregation over the
// per-instance planners. Because slrhd responses are a pure function of
// the canonical request (DESIGN.md §12), any backend answers any
// request with byte-identical bytes; the ring only decides *which*
// cache warms. See DESIGN.md §17.
package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per backend. 128 points
// per member keeps the max/min load share of a small fleet within a
// factor of ~2 (asserted by the distribution-bounds test).
const DefaultReplicas = 128

// point is one virtual node: a position on the 64-bit hash circle
// owned by a backend.
type point struct {
	hash    uint64
	backend string
}

// Ring is a replicated consistent-hash ring: each member contributes
// `replicas` virtual nodes, a key is homed on the first point at or
// clockwise after its hash, and membership changes move only the keys
// whose arc gained or lost an owner (~1/N of the space per join/leave
// — the minimal-remap property, asserted by tests). The zero Ring is
// not usable; construct with NewRing. Ring is not goroutine-safe;
// the router mutates it only under its own lock.
type Ring struct {
	replicas int
	points   []point  // sorted by (hash, backend)
	members  []string // sorted member names
}

// NewRing returns an empty ring with the given virtual-node count per
// member (non-positive selects DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas}
}

// ringHash positions a label on the circle: the first 8 bytes of its
// SHA-256, the same digest family as the canonical request key, so
// placement is uniform and platform-independent.
func ringHash(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op.
func (r *Ring) Add(backend string) {
	i := sort.SearchStrings(r.members, backend)
	if i < len(r.members) && r.members[i] == backend {
		return
	}
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = backend
	for v := 0; v < r.replicas; v++ {
		r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", backend, v)), backend: backend})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
}

// Members returns the sorted member list (shared backing array; do not
// mutate).
func (r *Ring) Members() []string { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Home returns the key's owning backend: the member of the first
// virtual node at or clockwise after the key's hash. Empty ring
// returns "".
func (r *Ring) Home(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].backend
}

// search finds the index of the key's successor point, wrapping at the
// top of the circle.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors returns up to n distinct backends in ring order starting
// at the key's home: the failover sequence. Successors(key, r.Len())
// is every member, home first.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	start := r.search(key)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		b := r.points[(start+i)%len(r.points)].backend
		if !containsString(out, b) {
			out = append(out, b)
		}
	}
	return out
}

// containsString reports membership in a tiny slice (fleet-sized, so
// linear scan beats a map and stays detrange-clean).
func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
