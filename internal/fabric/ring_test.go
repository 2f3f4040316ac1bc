package fabric

import (
	"fmt"
	"testing"
)

// keyName generates the i'th test key.
func keyName(i int) string { return fmt.Sprintf("key-%08d", i) }

// TestRingDistributionBounds checks the load balance the replicated
// ring promises: over ≥10k keys, no backend's share strays past a
// factor of 2 from the mean in either direction, at several fleet
// sizes. (Measured headroom at 128 replicas is ~1.1×/0.74×; the factor
// 2 bound is the contract, not the typical case.)
func TestRingDistributionBounds(t *testing.T) {
	const keys = 10000
	for _, nb := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("backends=%d", nb), func(t *testing.T) {
			r := NewRing(0) // DefaultReplicas
			var members []string
			for i := 0; i < nb; i++ {
				b := fmt.Sprintf("http://backend-%d:8080", i)
				members = append(members, b)
				r.Add(b)
			}
			counts := make([]int, nb)
			for k := 0; k < keys; k++ {
				home := r.Home(keyName(k))
				found := false
				for i, m := range members {
					if m == home {
						counts[i]++
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("key %d homed on unknown backend %q", k, home)
				}
			}
			mean := float64(keys) / float64(nb)
			for i, c := range counts {
				if share := float64(c) / mean; share > 2 || share < 0.5 {
					t.Errorf("backend %d holds %d of %d keys (%.2fx the mean %.0f); want within a factor of 2",
						i, c, keys, share, mean)
				}
			}
		})
	}
}

// TestRingMinimalRemapJoin checks the consistent-hashing join
// property: adding a member moves only ~1/(N+1) of the keys, and every
// moved key moves *to* the new member — never between old members.
func TestRingMinimalRemapJoin(t *testing.T) {
	const keys = 10000
	for _, nb := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("backends=%d", nb), func(t *testing.T) {
			r := NewRing(0)
			for i := 0; i < nb; i++ {
				r.Add(fmt.Sprintf("b%d", i))
			}
			before := make([]string, keys)
			for k := range before {
				before[k] = r.Home(keyName(k))
			}
			const joined = "bJOINED"
			r.Add(joined)
			moved := 0
			for k := range before {
				after := r.Home(keyName(k))
				if after == before[k] {
					continue
				}
				moved++
				if after != joined {
					t.Fatalf("key %d moved %s→%s on join; keys may only move to the joining member",
						k, before[k], after)
				}
			}
			ideal := float64(keys) / float64(nb+1)
			if f := float64(moved) / ideal; f < 0.5 || f > 1.6 {
				t.Errorf("join moved %d keys, %.2fx the ideal %.0f (want ~1/N of the space)", moved, f, ideal)
			}
		})
	}
}

// TestRingMinimalRemapLeave checks the leave property: a ring rebuilt
// from the remaining members, as Router.Leave builds it, re-homes
// exactly the leaver's keys and no others.
func TestRingMinimalRemapLeave(t *testing.T) {
	const keys = 10000
	r := NewRing(0)
	const nb = 5
	for i := 0; i < nb; i++ {
		r.Add(fmt.Sprintf("b%d", i))
	}
	before := make([]string, keys)
	for k := range before {
		before[k] = r.Home(keyName(k))
	}
	const victim = "b2"
	r = NewRing(0)
	for i := 0; i < nb; i++ {
		if b := fmt.Sprintf("b%d", i); b != victim {
			r.Add(b)
		}
	}
	moved := 0
	for k := range before {
		after := r.Home(keyName(k))
		if before[k] == victim {
			moved++
			if after == victim {
				t.Fatalf("key %d still homed on removed member", k)
			}
			continue
		}
		if after != before[k] {
			t.Fatalf("key %d moved %s→%s though its home stayed a member", k, before[k], after)
		}
	}
	if moved == 0 {
		t.Fatalf("no keys were homed on %s before removal; test vacuous", victim)
	}
}

// TestRingSuccessors pins the failover sequence: distinct members in
// ring order, home first, capped at the member count.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("b%d", i))
	}
	for k := 0; k < 100; k++ {
		key := keyName(k)
		succ := r.Successors(key, 10)
		if len(succ) != 4 {
			t.Fatalf("Successors(%q, 10) returned %d members, want all 4", key, len(succ))
		}
		if succ[0] != r.Home(key) {
			t.Fatalf("Successors(%q)[0] = %s, want home %s", key, succ[0], r.Home(key))
		}
		for i := range succ {
			for j := i + 1; j < len(succ); j++ {
				if succ[i] == succ[j] {
					t.Fatalf("Successors(%q) repeats %s", key, succ[i])
				}
			}
		}
	}
}

// TestRingEmptyAndIdempotent covers the degenerate edges: empty ring
// and duplicate Add.
func TestRingEmptyAndIdempotent(t *testing.T) {
	r := NewRing(0)
	if h := r.Home("anything"); h != "" {
		t.Fatalf("empty ring homed a key on %q", h)
	}
	if s := r.Successors("anything", 3); s != nil {
		t.Fatalf("empty ring returned successors %v", s)
	}
	r.Add("b0")
	r.Add("b0")
	if r.Len() != 1 || len(r.points) != DefaultReplicas {
		t.Fatalf("duplicate Add changed the ring: len=%d points=%d", r.Len(), len(r.points))
	}
}
