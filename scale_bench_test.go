package aquago

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Benchmarks for the scaled hot paths: transmit-queue admission and
// route builds at 60, 500 and 2000 nodes. The companion alloc-bound tests
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
		for _, j := range net.audibleRowLocked(tx) {
			if j != tx {
				rx = j
				break
			}
		}
		net.mu.Unlock()
		if rx >= 0 {
			return tx, rx
		}
	}
}

// admitOnce enqueues one uncontended job on (tx, rx), runs the
// dispatch gate's decision on it and resolves it — admission without
// an exchange behind it.
func admitOnce(tb testing.TB, net *Network, tx, rx int) {
	net.tx.mu.Lock()
	defer net.tx.mu.Unlock()
	if _, err := net.txEnqueueLocked(net.order[tx], net.order[rx], TxNormal, 0, nil, 0, NoMessage, relayCtx{}, nil, nil, nil); err != nil {
		tb.Fatal(err)
	}
	admitted := net.txAdmitLocked()
	if len(admitted) != 1 {
		tb.Fatalf("gate admitted %d jobs, want the one uncontended job", len(admitted))
	}
	net.txRetireLocked(admitted[0], SendResult{}, 0, nil)
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
				admitOnce(b, net, tx, rx)
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
// 2000 nodes: enqueueing, admitting and resolving an uncontended job
// must cost a handful of allocations (job, handle, channel, context,
// scan slices) — not anything proportional to the population.
func TestAdmissionAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	net := scatterNetwork(t, 2000, 30, 17)
	rng := rand.New(rand.NewSource(23))
	tx, rx := benchPair(net, rng)
	allocs := testing.AllocsPerRun(200, func() {
		admitOnce(t, net, tx, rx)
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

// latticeJoin joins device id at the id-th point of a 32-wide square
// lattice of pitch 20 m: under a 30 m carrier-sense range each node
// hears its eight lattice neighbours, and IDs sharing an on-air tone
// (60 apart) sit about 90 m apart.
func latticeJoin(tb testing.TB, net *Network, id int) {
	tb.Helper()
	pos := Position{X: float64(id%32) * 20, Y: float64(id/32) * 20, Z: 2}
	if _, err := net.Join(DeviceID(id), pos); err != nil {
		tb.Fatal(err)
	}
}

// TestJoinFootprint pins what a joined node retains: its modem shares
// the configuration's preamble and CAZAC tables, and its FFT scratch
// and MAC random source wait for its first exchange, so a node that
// never transmits costs a few KiB, not a modem's worth of tables.
func TestJoinFootprint(t *testing.T) {
	const nodes, maxPerNode = 1000, 8 << 10
	net, err := NewNetwork(Bridge, WithNetworkSeed(5), WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	latticeJoin(t, net, 0) // the shared tables exist before the first reading
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := 1; id <= nodes; id++ {
		latticeJoin(t, net, id)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / nodes
	t.Logf("a join retains %d B", perNode)
	if perNode > maxPerNode {
		t.Fatalf("a join retains %d B, want <= %d", perNode, maxPerNode)
	}
}

// TestJoinAllocBound pins a Join's allocation count into a populated
// network: the node's own objects and its adjacency row, nothing per
// modem table, and no fresh random source for the clock stagger.
func TestJoinAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	net, err := NewNetwork(Bridge, WithNetworkSeed(5), WithCSRange(30))
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	for ; id < 500; id++ {
		latticeJoin(t, net, id)
	}
	allocs := testing.AllocsPerRun(100, func() {
		latticeJoin(t, net, id)
		id++
	})
	t.Logf("a join costs %.1f allocs", allocs)
	if allocs > 20 {
		t.Fatalf("a join costs %.1f allocs, want <= 20", allocs)
	}
}

// TestRouteBuildIsGoalDirected pins the goal-directed build on the
// 2,000-node scatter: a far route, from the node nearest the box's
// centre to the one nearest a corner (about 24 hops), must be the
// reference Dijkstra's path while settling at most half the nodes an
// undirected search settles first — every node strictly closer to the
// source than the destination is. Settled nodes are read from the
// search scratch.
func TestRouteBuildIsGoalDirected(t *testing.T) {
	net := scatterNetwork(t, 2000, 30, 17)
	net.mu.Lock()
	defer net.mu.Unlock()
	var hi Position
	for _, p := range net.pos {
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	nearest := func(x, y float64) int {
		best, bestD := 0, math.Inf(1)
		for i, p := range net.pos {
			if d := math.Hypot(p.X-x, p.Y-y); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	src, dst := nearest(hi.X/2, hi.Y/2), nearest(hi.X, hi.Y)
	got, err := net.routeLocked(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	settled := 0
	for _, d := range net.routeScratch.done {
		if d {
			settled++
		}
	}
	want, err := bruteRouteLocked(net, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d->%d: path %v != reference %v", src, dst, got, want)
	}
	dist, err := unboundedDistFromLocked(net, src)
	if err != nil {
		t.Fatal(err)
	}
	closer := 0
	for _, d := range dist {
		if d < dist[dst] {
			closer++
		}
	}
	t.Logf("%d->%d: %d hops; settled %d nodes, an undirected search at least %d", src, dst, len(got)-1, settled, closer)
	if 2*settled > closer {
		t.Fatalf("%d->%d: the build settled %d nodes, want at most half of the undirected search's %d", src, dst, settled, closer)
	}
}
