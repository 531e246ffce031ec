package aquago

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the scaled hot paths: ticket admission and route
// builds at 60, 500 and 2000 nodes. The companion alloc-bound tests
// pin that per-operation allocation counts stay flat — independent of
// node count — so a regression back to O(N) work per admission shows
// up as a count jump, not just a timing drift.

var benchSizes = []int{60, 500, 2000}

// benchPair draws a deterministic audible pair for admissions.
func benchPair(net *Network, rng *rand.Rand) (int, int) {
	for {
		tx := rng.Intn(len(net.order))
		var rx = -1
		net.mu.Lock()
		net.forEachAudibleLocked(tx, func(j int) {
			if rx < 0 {
				rx = j
			}
		})
		net.mu.Unlock()
		if rx >= 0 {
			return tx, rx
		}
	}
}

func BenchmarkSchedulerAdmission(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			net := scatterNetwork(b, n, 30, 17)
			rng := rand.New(rand.NewSource(23))
			tx, rx := benchPair(net, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.mu.Lock()
				tk := net.registerTicketLocked(tx, rx)
				net.resolveLocked(tk)
				net.mu.Unlock()
			}
		})
	}
}

func BenchmarkRouteBuild(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			net := scatterNetwork(b, n, 30, 17)
			rng := rand.New(rand.NewSource(29))
			src, dst := benchPair(net, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.mu.Lock()
				net.routeCache = nil // force a fresh build
				_, err := net.routeLocked(src, dst)
				net.mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAdmissionAllocBound pins the per-admission allocation count at
// 2000 nodes: registering and resolving an uncontended ticket must
// cost a handful of allocations (ticket, channel, slice slack) — not
// anything proportional to the population.
func TestAdmissionAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	net := scatterNetwork(t, 2000, 30, 17)
	rng := rand.New(rand.NewSource(23))
	tx, rx := benchPair(net, rng)
	allocs := testing.AllocsPerRun(200, func() {
		net.mu.Lock()
		tk := net.registerTicketLocked(tx, rx)
		net.resolveLocked(tk)
		net.mu.Unlock()
	})
	if allocs > 16 {
		t.Fatalf("admission costs %.1f allocs at 2000 nodes, want <= 16", allocs)
	}
}

// TestRouteBuildAllocBound pins a route build's allocation count at
// 2000 nodes: the label arrays and heap are reused scratch, so a fresh
// Dijkstra allocates only the path it returns and the cache insert —
// nothing per node or per edge.
func TestRouteBuildAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	net := scatterNetwork(t, 2000, 30, 17)
	rng := rand.New(rand.NewSource(29))
	src, dst := benchPair(net, rng)
	allocs := testing.AllocsPerRun(50, func() {
		net.mu.Lock()
		net.routeCache = nil
		if _, err := net.routeLocked(src, dst); err != nil {
			net.mu.Unlock()
			t.Fatal(err)
		}
		net.mu.Unlock()
	})
	if allocs > 4 {
		t.Fatalf("route build costs %.1f allocs at 2000 nodes, want <= 4", allocs)
	}
}
