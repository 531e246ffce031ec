package aquago

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// Tests for route invalidation by hop floor (dropBeatableRoutesLocked):
// the surviving set must be exactly what the floor rule keeps, and a
// subset of what the exact unbounded pricing Dijkstra keeps — no stale
// route survives — step for step; and a motion epoch must allocate per
// mover, not per node.

// unboundedItem and unboundedHeap are the former container/heap route
// queue, kept as the reference's priority queue.
type unboundedItem struct {
	cost float64
	hops int
	lenM float64
	idx  int
}

type unboundedHeap []unboundedItem

func (h unboundedHeap) Len() int { return len(h) }
func (h unboundedHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.cost != b.cost:
		return a.cost < b.cost
	case a.hops != b.hops:
		return a.hops < b.hops
	case a.lenM != b.lenM:
		return a.lenM < b.lenM
	}
	return a.idx < b.idx
}
func (h unboundedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *unboundedHeap) Push(x interface{}) { *h = append(*h, x.(unboundedItem)) }
func (h *unboundedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// unboundedDistFromLocked is the exact pricing Dijkstra: a
// cost-only search from src run until the heap is empty, returning the
// policy distance to every node (math.MaxFloat64 where unreachable).
// Callers hold n.mu.
func unboundedDistFromLocked(n *Network, src int) ([]float64, error) {
	const unreached = math.MaxFloat64
	dist := make([]float64, len(n.order))
	done := make([]bool, len(n.order))
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	pq := &unboundedHeap{{idx: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(unboundedItem)
		u := it.idx
		if done[u] {
			continue
		}
		done[u] = true
		for _, v := range n.audibleRowLocked(u) {
			if done[v] || n.departed[v] {
				continue
			}
			w, err := n.hopWeightLocked(u, v)
			if err != nil {
				return nil, err
			}
			if c := dist[u] + w; c < dist[v] {
				dist[v] = c
				heap.Push(pq, unboundedItem{cost: c, idx: v})
			}
		}
	}
	return dist, nil
}

// sortKeys orders route-cache keys by source, then destination.
func sortKeys(keys [][2]int) [][2]int {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// routeKeys snapshots the route cache's key set, sorted.
func routeKeys(net *Network) [][2]int {
	net.mu.Lock()
	defer net.mu.Unlock()
	keys := make([][2]int, 0, len(net.routeCache))
	//aqualint:order-independent the keys are sorted before use
	for k := range net.routeCache {
		keys = append(keys, k)
	}
	return sortKeys(keys)
}

// snapshotRoutes copies the route cache.
func snapshotRoutes(net *Network) map[[2]int]cachedRoute {
	net.mu.Lock()
	defer net.mu.Unlock()
	out := make(map[[2]int]cachedRoute, len(net.routeCache))
	//aqualint:order-independent a plain copy
	for k, r := range net.routeCache {
		out[k] = r
	}
	return out
}

// unboundedKeep returns, sorted, the keys of before that the unbounded
// pricing from node idx keeps on the network's current geometry: drop
// every route through idx, then every route with d[a] + d[b] <= cost.
func unboundedKeep(t *testing.T, net *Network, before map[[2]int]cachedRoute, idx int) [][2]int {
	t.Helper()
	net.mu.Lock()
	dist, err := unboundedDistFromLocked(net, idx)
	net.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var keep [][2]int
	//aqualint:order-independent each entry is tested independently and the result is sorted
	for k, r := range before {
		if !pathContains(r.path, idx) && !(dist[k[0]]+dist[k[1]] <= r.cost) {
			keep = append(keep, k)
		}
	}
	return sortKeys(keep)
}

// floorKeep returns, sorted, the keys of before that the hop-floor rule
// keeps for node idx, recomputed from scratch on the network's current
// positions: drop every route through idx, then every route whose
// endpoints' hop floors from idx, ceil(distance / range) but at least
// one, sum to at most its cost.
func floorKeep(net *Network, before map[[2]int]cachedRoute, idx int) [][2]int {
	net.mu.Lock()
	defer net.mu.Unlock()
	floor := func(v int) float64 {
		switch r := net.cfg.csRangeM; {
		case v == idx:
			return 0
		case r <= 0:
			return 1
		default:
			return math.Max(1, math.Ceil(net.pos[idx].DistanceTo(net.pos[v])/r-1e-9))
		}
	}
	var keep [][2]int
	//aqualint:order-independent each entry is tested independently and the result is sorted
	for k, r := range before {
		if !pathContains(r.path, idx) && floor(k[0])+floor(k[1]) > r.cost {
			keep = append(keep, k)
		}
	}
	return sortKeys(keep)
}

// subsetOf reports whether every key of sorted a is in sorted b.
func subsetOf(a, b [][2]int) bool {
	j := 0
	for _, k := range a {
		for j < len(b) && b[j] != k {
			j++
		}
		if j == len(b) {
			return false
		}
		j++
	}
	return true
}

// TestPricingFloorRuleIsSound interleaves Join, SetPosition,
// AdvanceMotion and Route on random scatters under both policies and
// checks after every step that the surviving route-cache key set is
// exactly what the hop-floor rule, recomputed from the pre-step
// snapshot, keeps — and that it is a subset of what the exact unbounded
// pricing keeps, so no route that a path through the node could beat or
// tie survives. AdvanceMotion runs on one network; a twin replays the
// epoch as one SetPosition per mover, in the same order, and is checked
// after each mover — the epoch's result must equal the replay's.
func TestPricingFloorRuleIsSound(t *testing.T) {
	cases := []struct {
		n      int
		cs     float64
		policy RoutingPolicy
		steps  int
	}{
		{80, 20, MinHop, 60},
		{150, 12, MinHop, 60},
		{40, 0, MinHop, 30},
		{20, 20, MinETX, 16},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%v/n=%d/cs=%g/seed=%d", c.policy, c.n, c.cs, seed)
			t.Run(name, func(t *testing.T) {
				checkFloorRule(t, c.n, c.cs, c.policy, c.steps, seed)
			})
		}
	}
}

func checkFloorRule(t *testing.T, n int, cs float64, policy RoutingPolicy, steps int, seed int64) {
	epochNet := scatterNetwork(t, n, cs, seed, WithRouting(policy))
	twin := scatterNetwork(t, n, cs, seed, WithRouting(policy))
	rng := rand.New(rand.NewSource(seed*7121 + int64(n)))
	side := 40.0
	if cs > 0 {
		side = cs * (1.5 + math.Sqrt(float64(n))/2)
	}
	// A quarter of the nodes drift on tracks, steadily enough to cross
	// several audibility ranges over the run.
	epochNet.mu.Lock()
	for i, nd := range epochNet.order {
		if i%4 == 0 {
			vx, vy := (rng.Float64()*2-1)*0.3*side, (rng.Float64()*2-1)*0.3*side
			nd.track = DriftTrack(epochNet.pos[i], vx/float64(steps), vy/float64(steps), 0, float64(steps))
			nd.hasTrack = true
		}
	}
	epochNet.mu.Unlock()

	sameKeys := func(step int, what string) {
		t.Helper()
		a, b := routeKeys(epochNet), routeKeys(twin)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("step %d (%s): route cache %v != twin's %v", step, what, a, b)
		}
	}
	// checked runs one cache-changing step on the twin and compares the
	// survivors against the floor rule and the unbounded pricing from
	// node idx.
	checked := func(step int, what string, idx int, do func() error) error {
		t.Helper()
		before := snapshotRoutes(twin)
		err := do()
		if err != nil {
			return err
		}
		got := routeKeys(twin)
		if want := floorKeep(twin, before, idx); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s, node %d): route cache %v, the floor rule keeps %v",
				step, what, idx, got, want)
		}
		if exact := unboundedKeep(t, twin, before, idx); !subsetOf(got, exact) {
			t.Fatalf("step %d (%s, node %d): route cache %v keeps a route the unbounded pricing drops (it keeps %v)",
				step, what, idx, got, exact)
		}
		return nil
	}
	route := func() {
		src := DeviceID(rng.Intn(n))
		dst := DeviceID(rng.Intn(n))
		p1, err1 := epochNet.Route(src, dst)
		p2, err2 := twin.Route(src, dst)
		if fmt.Sprint(p1, err1) != fmt.Sprint(p2, err2) {
			t.Fatalf("Route %d->%d: %v (%v) != twin's %v (%v)", src, dst, p1, err1, p2, err2)
		}
	}
	nextID := DeviceID(n)
	clockS := 0.0
	for step := 0; step < steps; step++ {
		// Warm the caches so every step has entries to price.
		for k := 0; k < 4; k++ {
			route()
		}
		sameKeys(step, "route")
		switch op := rng.Intn(3); op {
		case 0: // Join a newcomer somewhere in (or just outside) the scatter.
			p := Position{X: (rng.Float64()*1.2 - 0.1) * side, Y: (rng.Float64()*1.2 - 0.1) * side, Z: 2}
			_, err1 := epochNet.Join(nextID, p)
			err2 := checked(step, "join", len(twin.order), func() error {
				_, err := twin.Join(nextID, p)
				return err
			})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: Join %v vs twin %v", step, err1, err2)
			}
			if err1 == nil {
				nextID++
			}
		case 1: // Move one node a random step.
			i := rng.Intn(len(twin.order))
			p := twin.order[i].Position()
			p.X += (rng.Float64()*2 - 1) * 0.5 * side
			p.Y += (rng.Float64()*2 - 1) * 0.5 * side
			a, b := epochNet.order[i], twin.order[i]
			err1 := a.SetPosition(p)
			err2 := checked(step, "move", i, func() error { return b.SetPosition(p) })
			if (err1 == nil) != (err2 == nil) || (err1 != nil && !errors.Is(err1, ErrAddressClash)) {
				t.Fatalf("step %d: SetPosition %v vs twin %v", step, err1, err2)
			}
		case 2: // One motion epoch, replayed mover by mover on the twin.
			clockS++
			ep, err := epochNet.AdvanceMotion(clockS)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ep.Moved {
				nd, _ := twin.Node(id)
				a, _ := epochNet.Node(id)
				p := a.Position()
				if err := checked(step, "epoch mover", nd.idx, func() error { return nd.SetPosition(p) }); err != nil {
					t.Fatalf("step %d: twin replay of mover %d: %v", step, id, err)
				}
			}
		}
		sameKeys(step, "after op")
	}
}

// TestPricingConcurrentRouteAndMotion runs Route queries from several
// goroutines while motion epochs move nodes: the shared search scratch
// lives under the network lock, so the race detector must stay quiet
// and every returned path must be a valid audible walk.
func TestPricingConcurrentRouteAndMotion(t *testing.T) {
	const n = 120
	net := scatterNetwork(t, n, 20, 3, WithRouting(MinHop))
	net.mu.Lock()
	for i, nd := range net.order {
		if i%5 == 0 {
			nd.track = DriftTrack(net.pos[i], 1.5, -1, 0, 40)
			nd.hasTrack = true
		}
	}
	net.mu.Unlock()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 3) // one send at most per query goroutine
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				path, err := net.Route(DeviceID(rng.Intn(n)), DeviceID(rng.Intn(n)))
				if err != nil {
					if errors.Is(err, ErrNoRoute) || errors.Is(err, ErrBadDeviceID) {
						continue
					}
					errc <- err
					return
				}
				if len(path) < 2 {
					errc <- fmt.Errorf("path %v too short", path)
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	for s := 1; s <= 30; s++ {
		if _, err := net.AdvanceMotion(float64(s)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMotionEpochAllocBound pins a motion epoch's allocations below
// its movers: on a 2,000-node scatter with a warm route cache, an
// AdvanceMotion epoch moving k nodes allocates fewer than k times —
// the epoch report and a peer row's occasional growth. A mover's new
// adjacency row reuses scratch storage, and route invalidation
// allocates nothing.
func TestMotionEpochAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const k = 8
	net := scatterNetwork(t, 2000, 30, 17)
	net.mu.Lock()
	for i := 0; i < k; i++ {
		nd := net.order[i*250]
		nd.track = DriftTrack(net.pos[i*250], 0.5, 0.25, 0, 1000)
		nd.hasTrack = true
	}
	net.mu.Unlock()
	rng := rand.New(rand.NewSource(31))
	warm := func() {
		for r := 0; r < 16; r++ {
			src, dst := benchPair(net, rng)
			// Any pair will do; a far destination makes long, costly routes.
			dst = (dst + 1000) % len(net.order)
			if src == dst {
				continue
			}
			net.mu.Lock()
			_, _ = net.routeLocked(src, dst)
			net.mu.Unlock()
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm()
	if _, err := net.AdvanceMotion(1); err != nil { // size the scratch
		t.Fatal(err)
	}
	const epochs = 20
	var total uint64
	var ms runtime.MemStats
	for e := 2; e < 2+epochs; e++ {
		warm()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		ep, err := net.AdvanceMotion(float64(e))
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
		if err != nil {
			t.Fatal(err)
		}
		if len(ep.Moved) != k {
			t.Fatalf("epoch %d moved %d nodes, want %d", e, len(ep.Moved), k)
		}
	}
	per := float64(total) / epochs
	t.Logf("a %d-mover epoch costs %.1f allocs", k, per)
	if per > k {
		t.Fatalf("a %d-mover epoch costs %.1f allocs at 2000 nodes, want <= %d", k, per, k)
	}
}
