// Package cluster turns a set of independent e9served daemons into a
// consistent-hash cluster (DESIGN.md §12). Membership is static — a
// peer list every node is started with — and coordination is nil by
// design: nodes never gossip, never elect, and never replicate. The
// only shared artifact is the PatchPlan (the serialized decision record
// from the plan/apply split), fetched over a single internal GET when a
// node handles a key it does not own. Plans are kilobytes where results
// are whole binaries and ~20x cheaper to apply than to recompute, which
// is exactly what makes this shape work: losing a peer costs one plan
// fetch or, at worst, one local replan — never correctness.
//
// The package is deliberately server-agnostic: Ring maps cache keys to
// owner URLs, Health tracks peer reachability with a cooldown, and
// Client speaks the one-endpoint internal protocol. The HTTP routing
// policy built on top of them lives in internal/server.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultReplicas is the virtual-node count per peer of a cluster's
// ring. 64 points per node keeps the maximum ownership skew of
// small (3–10 node) clusters within a few percent while the ring stays
// tiny (a sorted slice scanned by binary search).
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring over a static peer list.
// Keys map to the first virtual node clockwise from the key's hash;
// adding or removing one peer moves only the keys that peer owned,
// which is the property that lets a fleet restart nodes without
// invalidating every other node's cache shard.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring with replicas virtual nodes per peer
// (replicas <= 0 selects DefaultReplicas). Duplicate and empty peer
// entries are dropped; an all-empty list yields a ring whose Owner
// returns "".
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(p, i), node: p})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare with sha256 points) break by name so
		// every node computes the identical ring.
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Owner returns the peer that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is a circle
	}
	return r.points[i].node
}

// pointHash places virtual node i of peer on the ring. The peer name
// and replica index are length-framed so "node1"+replica 11 and
// "node11"+replica 1 cannot collide.
func pointHash(peer string, i int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, uint64(len(peer)))
	h.Write([]byte(peer))
	h.Write(buf[:])
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// keyHash places a cache key on the ring. Keys are already
// content-address strings (sha256 hex), but hashing again keeps the
// ring independent of the key encoding.
func keyHash(key string) uint64 {
	s := sha256.Sum256([]byte(key))
	return binary.LittleEndian.Uint64(s[:8])
}
