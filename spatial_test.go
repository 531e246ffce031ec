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

// bruteAudible is the O(N^2) audibility definition the grid adjacency
// replaced.
func bruteAudible(net *Network, i int) []int {
	var out []int
	for j := range net.order {
		if j == i {
			continue
		}
		r := net.cfg.csRangeM
		if r <= 0 || net.order[i].pos.DistanceTo(net.order[j].pos) <= r {
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
					var got []int
					net.forEachAudibleLocked(i, func(j int) { got = append(got, j) })
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
	p := func(i int) Position { return net.order[i].pos }
	return p(a1).DistanceTo(p(a2)) <= r || p(a1).DistanceTo(p(b2)) <= r ||
		p(b1).DistanceTo(p(a2)) <= r || p(b1).DistanceTo(p(b2)) <= r
}

// bruteRouteLocked is the pre-index Dijkstra verbatim: linear
// extraction over every node, relaxation over every audible pair.
// Callers hold net.mu.
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
			if done[v] || !net.audibleLocked(u, v) {
				continue
			}
			w, err := net.hopWeightLocked(u, v)
			if err != nil {
				return nil, err
			}
			c := cost[u] + w
			h := hops[u] + 1
			l := lenM[u] + net.order[u].pos.DistanceTo(net.order[v].pos)
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

func TestRouteMatchesBruteDijkstra(t *testing.T) {
	cases := []struct {
		n      int
		cs     float64
		policy RoutingPolicy
	}{
		{40, 20, MinHop},
		{120, 15, MinHop},
		{16, 20, MinETX},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			net := scatterNetwork(t, c.n, c.cs, seed, WithRouting(c.policy))
			net.mu.Lock()
			rng := rand.New(rand.NewSource(seed * 31337))
			for trial := 0; trial < 40; trial++ {
				src := rng.Intn(c.n)
				dst := rng.Intn(c.n - 1)
				if dst >= src {
					dst++
				}
				got, gotErr := net.routeLocked(src, dst)
				want, wantErr := bruteRouteLocked(net, src, dst)
				if (gotErr == nil) != (wantErr == nil) {
					net.mu.Unlock()
					t.Fatalf("%v n=%d seed=%d %d->%d: err %v vs brute %v", c.policy, c.n, seed, src, dst, gotErr, wantErr)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					net.mu.Unlock()
					t.Fatalf("%v n=%d seed=%d %d->%d: path %v != brute %v", c.policy, c.n, seed, src, dst, got, want)
				}
			}
			net.mu.Unlock()
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
