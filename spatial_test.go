package aquago

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// In-package property tests for the spatial-index plumbing: the
// grid-backed audibility adjacency, the scheduler's precomputed
// conflict edges, and the neighbor-expanding Dijkstra must agree,
// node for node and edge for edge, with the brute-force O(N^2)
// definitions they replaced.

// scatterNetwork joins n nodes at seeded random positions inside a
// box sized to the carrier-sense range. Tone clashes (IDs >= 60 reuse
// tones) are resolved by redrawing the position, keeping the layout a
// pure function of the seed.
func scatterNetwork(t testing.TB, n int, csRangeM float64, seed int64, opts ...NetworkOption) *Network {
	t.Helper()
	net, err := NewNetwork(Bridge, append([]NetworkOption{
		WithNetworkSeed(seed), WithCSRange(csRangeM)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	side := 40.0
	if csRangeM > 0 {
		side = csRangeM * (1.5 + math.Sqrt(float64(n))/2)
	}
	// Half the draws land on a lattice of quarter-range pitch, so
	// plenty of nodes straddle cell boundaries and pair distances hit
	// the audibility radius exactly.
	quant := csRangeM / 4
	draw := func() Position {
		p := Position{X: rng.Float64() * side, Y: rng.Float64() * side, Z: 1 + rng.Float64()*4}
		if quant > 0 && rng.Intn(2) == 0 {
			p.X = math.Round(p.X/quant) * quant
			p.Y = math.Round(p.Y/quant) * quant
		}
		return p
	}
	for i := 0; i < n; i++ {
		joined := false
		for tries := 0; tries < 500; tries++ {
			if _, err := net.Join(DeviceID(i), draw()); err == nil {
				joined = true
				break
			}
		}
		if !joined {
			t.Fatalf("node %d: no clash-free position in 500 draws", i)
		}
	}
	return net
}

// audibleOf returns node i's audibility row without i itself — what
// bruteAudible defines. Callers hold net.mu.
func audibleOf(net *Network, i int) []int {
	var out []int
	for _, j := range net.audibleRowLocked(i) {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// bruteAudible is the O(N^2) audibility definition the grid adjacency
// replaced.
func bruteAudible(net *Network, i int) []int {
	var out []int
	for j := range net.order {
		if j == i {
			continue
		}
		r := net.cfg.csRangeM
		if r <= 0 || net.pos[i].DistanceTo(net.pos[j]) <= r {
			out = append(out, j)
		}
	}
	return out
}

func TestGridAdjacencyMatchesBrute(t *testing.T) {
	for _, cs := range []float64{0, 7.5, 30} {
		for _, n := range []int{1, 10, 40, 120} {
			if cs <= 0 && n > 60 {
				// Unlimited audibility keeps the paper's 60-tone cap.
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				net := scatterNetwork(t, n, cs, seed)
				net.mu.Lock()
				for i := range net.order {
					got := audibleOf(net, i)
					want := bruteAudible(net, i)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						net.mu.Unlock()
						t.Fatalf("cs=%g n=%d seed=%d node %d: grid %v != brute %v", cs, n, seed, i, got, want)
					}
				}
				net.mu.Unlock()
			}
		}
	}
}

// bruteInterferes reports whether exchanges on (a1, b1) and (a2, b2)
// could interact under the original definition: shared node,
// unlimited range, or any cross distance within range.
func bruteInterferes(net *Network, a1, b1, a2, b2 int) bool {
	if a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2 {
		return true
	}
	r := net.cfg.csRangeM
	if r <= 0 {
		return true
	}
	p := func(i int) Position { return net.pos[i] }
	return p(a1).DistanceTo(p(a2)) <= r || p(a1).DistanceTo(p(b2)) <= r ||
		p(b1).DistanceTo(p(a2)) <= r || p(b1).DistanceTo(p(b2)) <= r
}

// bruteRouteLocked is the pre-index Dijkstra: linear extraction over
// every node, relaxation over every audible pair, never relaying
// through a departed node. Callers hold net.mu.
func bruteRouteLocked(net *Network, src, dst int) ([]int, error) {
	const unreached = math.MaxFloat64
	nn := len(net.order)
	cost := make([]float64, nn)
	hops := make([]int, nn)
	lenM := make([]float64, nn)
	prev := make([]int, nn)
	done := make([]bool, nn)
	for i := range cost {
		cost[i] = unreached
		prev[i] = -1
	}
	cost[src], hops[src], lenM[src] = 0, 0, 0
	better := func(c float64, h int, l float64, at int, than int) bool {
		switch {
		case c != cost[than]:
			return c < cost[than]
		case h != hops[than]:
			return h < hops[than]
		case l != lenM[than]:
			return l < lenM[than]
		}
		return at < prev[than]
	}
	for {
		u := -1
		for i := 0; i < nn; i++ {
			if done[i] || cost[i] == unreached {
				continue
			}
			if u < 0 || cost[i] < cost[u] ||
				(cost[i] == cost[u] && (hops[i] < hops[u] ||
					(hops[i] == hops[u] && (lenM[i] < lenM[u] ||
						(lenM[i] == lenM[u] && i < u))))) {
				u = i
			}
		}
		if u < 0 || u == dst {
			break
		}
		done[u] = true
		for v := 0; v < nn; v++ {
			if done[v] || net.departed[v] || !net.audibleLocked(u, v) {
				continue
			}
			w, err := net.hopWeightLocked(u, v)
			if err != nil {
				return nil, err
			}
			c := cost[u] + w
			h := hops[u] + 1
			l := lenM[u] + net.pos[u].DistanceTo(net.pos[v])
			if c < cost[v] || (c == cost[v] && better(c, h, l, u, v)) {
				cost[v], hops[v], lenM[v], prev[v] = c, h, l, u
			}
		}
	}
	if cost[dst] == unreached {
		return nil, ErrNoRoute
	}
	var path []int
	for at := dst; at != -1; at = prev[at] {
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// livePair draws a random ordered pair of distinct nodes that have
// not left. Callers hold net.mu.
func livePair(net *Network, rng *rand.Rand) (int, int) {
	for {
		src := rng.Intn(len(net.order))
		dst := rng.Intn(len(net.order) - 1)
		if dst >= src {
			dst++
		}
		if !net.departed[src] && !net.departed[dst] {
			return src, dst
		}
	}
}

// TestRouteMatchesBruteDijkstra pins routeLocked's paths to the brute
// -force Dijkstra's, byte for byte, under both policies. The leave
// cases make some nodes Leave first, so both must route around them;
// the 100-node MinETX case runs long multi-hop paths, where the A*
// key (cost plus hop floor) would show any float rounding that
// reorders ties.
func TestRouteMatchesBruteDijkstra(t *testing.T) {
	cases := []struct {
		n      int
		cs     float64
		policy RoutingPolicy
		leave  int
		// minHops is a floor on the longest path found: the case must
		// exercise multi-hop routes.
		minHops int
	}{
		{40, 20, MinHop, 0, 0},
		{120, 15, MinHop, 0, 0},
		{16, 20, MinETX, 0, 0},
		{120, 15, MinHop, 20, 3},
		{100, 15, MinETX, 12, 3},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			net := scatterNetwork(t, c.n, c.cs, seed, WithRouting(c.policy))
			rng := rand.New(rand.NewSource(seed * 31337))
			for _, i := range rng.Perm(c.n)[:c.leave] {
				net.order[i].Leave()
			}
			net.mu.Lock()
			longest := 0
			for trial := 0; trial < 40; trial++ {
				src, dst := livePair(net, rng)
				got, gotErr := net.routeLocked(src, dst)
				want, wantErr := bruteRouteLocked(net, src, dst)
				if (gotErr == nil) != (wantErr == nil) {
					net.mu.Unlock()
					t.Fatalf("%v n=%d leave=%d seed=%d %d->%d: err %v vs brute %v", c.policy, c.n, c.leave, seed, src, dst, gotErr, wantErr)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					net.mu.Unlock()
					t.Fatalf("%v n=%d leave=%d seed=%d %d->%d: path %v != brute %v", c.policy, c.n, c.leave, seed, src, dst, got, want)
				}
				for _, v := range got {
					if net.departed[v] {
						net.mu.Unlock()
						t.Fatalf("%v n=%d leave=%d seed=%d %d->%d: path %v relays through departed node %d", c.policy, c.n, c.leave, seed, src, dst, got, v)
					}
				}
				if len(got)-1 > longest {
					longest = len(got) - 1
				}
			}
			net.mu.Unlock()
			if longest < c.minHops {
				t.Fatalf("%v n=%d leave=%d seed=%d: longest path %d hops, want >= %d", c.policy, c.n, c.leave, seed, longest, c.minHops)
			}
		}
	}
}

// TestJoinInvalidatesRoutesIncrementally pins the incremental route
// -cache invalidation: a join must drop exactly the cached paths it
// could have improved, keep the rest (and the ETX weight cache)
// intact, and leave every subsequent Route identical to a network
// built from scratch with the full geometry.
func TestJoinInvalidatesRoutesIncrementally(t *testing.T) {
	// Detour geometry: S and T are 50 m apart (inaudible at the 30 m
	// range) and initially connected only over the arc A-B-C; the late
	// joiner X sits between them and shortcuts S-X-T.
	lay := map[DeviceID]Position{
		0: {X: 0, Z: 1},         // S
		1: {X: 0, Y: 28, Z: 1},  // A
		2: {X: 25, Y: 42, Z: 1}, // B
		3: {X: 50, Y: 28, Z: 1}, // C
		4: {X: 50, Z: 1},        // T
	}
	joinOrder := []DeviceID{0, 1, 2, 3, 4}
	build := func(withX bool) *Network {
		net, err := NewNetwork(Bridge, WithNetworkSeed(5), WithCSRange(30))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range joinOrder {
			if _, err := net.Join(id, lay[id]); err != nil {
				t.Fatal(err)
			}
		}
		if withX {
			if _, err := net.Join(5, Position{X: 25, Z: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}

	net := build(false)
	long, err := net.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(long) != 5 {
		t.Fatalf("pre-join S->T path %v, want the 4-hop arc", long)
	}
	if _, err := net.Route(1, 2); err != nil { // A->B, untouched by X
		t.Fatal(err)
	}
	net.mu.Lock()
	cachedBefore := len(net.routeCache)
	net.mu.Unlock()
	if cachedBefore == 0 {
		t.Fatal("route cache empty after two Route calls")
	}

	if _, err := net.Join(5, Position{X: 25, Z: 1}); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	_, stHeld := net.routeCache[[2]int{0, 4}]
	_, abHeld := net.routeCache[[2]int{1, 2}]
	net.mu.Unlock()
	if stHeld {
		t.Fatal("S->T survived a join that shortcuts it")
	}
	if !abHeld {
		t.Fatal("A->B was invalidated by a join that cannot improve it")
	}

	short, err := net.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []DeviceID{0, 5, 4}
	if fmt.Sprint(short) != fmt.Sprint(want) {
		t.Fatalf("post-join S->T = %v, want %v", short, want)
	}
	// Late join must equal a from-scratch build of the same geometry.
	fresh := build(true)
	for _, pair := range [][2]DeviceID{{0, 4}, {1, 2}, {0, 3}, {2, 4}} {
		a, err1 := net.Route(pair[0], pair[1])
		b, err2 := fresh.Route(pair[0], pair[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("route %v: %v / %v", pair, err1, err2)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("route %v: late-join %v != fresh %v", pair, a, b)
		}
	}
}

// TestJoinKeepsETXCache pins the companion fix: ETX pair weights are
// geometry-local and must survive joins untouched.
func TestJoinKeepsETXCache(t *testing.T) {
	net := scatterNetwork(t, 12, 25, 9, WithRouting(MinETX))
	// The scatter may partition: warm the cache with whichever pairs
	// actually route.
	routed := 0
	for dst := DeviceID(1); dst < 12; dst++ {
		if _, err := net.Route(0, dst); err == nil {
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("node 0 routes to no one; scatter unusable")
	}
	net.mu.Lock()
	before := make(map[[2]int]float64, len(net.etxCache))
	for k, v := range net.etxCache {
		before[k] = v
	}
	net.mu.Unlock()
	if len(before) == 0 {
		t.Fatal("ETX cache empty after a MinETX route")
	}
	if _, err := net.Join(12, Position{X: -40, Y: -40, Z: 1}); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	for k, v := range before {
		got, ok := net.etxCache[k]
		if !ok || got != v {
			t.Fatalf("ETX weight %v changed across join: had %g, now %g (present %v)", k, v, got, ok)
		}
	}
}
