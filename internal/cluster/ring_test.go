package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x-%064x", i, i*7+1)
	}
	return out
}

// TestRingDeterministic: every node computes the identical ring, so
// ownership decisions agree fleet-wide regardless of peer-list order.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"http://n1", "http://n2", "http://n3"}, 0)
	b := NewRing([]string{"http://n3", "http://n1", "http://n2"}, 0)
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("ownership disagrees for %s: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingBalance: with virtual nodes, no peer owns a wildly
// disproportionate share of the key space.
func TestRingBalance(t *testing.T) {
	peers := []string{"http://n1", "http://n2", "http://n3"}
	r := NewRing(peers, 0)
	counts := make(map[string]int)
	const n = 3000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	for _, p := range peers {
		got := counts[p]
		// Perfect balance is n/3 = 1000; accept a generous 2x band. The
		// point is "sharded", not "perfect": a node owning everything (or
		// nothing) is the failure this guards against.
		if got < n/6 || got > 2*n/3 {
			t.Fatalf("peer %s owns %d of %d keys: ring is badly skewed (%v)", p, got, n, counts)
		}
	}
}

// TestRingMinimalMovement: removing one peer may only move keys that
// peer owned — survivors keep their shards, so a node death does not
// invalidate the rest of the fleet's caches.
func TestRingMinimalMovement(t *testing.T) {
	full := NewRing([]string{"http://n1", "http://n2", "http://n3"}, 0)
	less := NewRing([]string{"http://n1", "http://n2"}, 0)
	moved := 0
	for _, k := range keys(2000) {
		before, after := full.Owner(k), less.Owner(k)
		if before != "http://n3" {
			if before != after {
				t.Fatalf("key %s moved from surviving peer %q to %q", k, before, after)
			}
		} else {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("n3 owned no keys out of 2000: ring is degenerate")
	}
}

// TestRingDegenerate: empty and single-node rings behave sanely.
func TestRingDegenerate(t *testing.T) {
	if o := NewRing(nil, 0).Owner("k"); o != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", o)
	}
	one := NewRing([]string{"http://solo", "", "http://solo"}, 0)
	if got := len(one.points); got != DefaultReplicas {
		t.Fatalf("dedup failed: %d points, want one node's %d", got, DefaultReplicas)
	}
	for _, k := range keys(10) {
		if o := one.Owner(k); o != "http://solo" {
			t.Fatalf("single-node ring owner = %q", o)
		}
	}
}

// TestConfigValidate: a Self outside the peer list is a config error,
// not a silent all-remote cluster.
func TestConfigValidate(t *testing.T) {
	bad := Config{Self: "http://me", Peers: []string{"http://a", "http://b"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("self outside peers validated")
	}
	good := Config{Self: "http://a", Peers: []string{"http://a", "http://b"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config must validate: %v", err)
	}
}
