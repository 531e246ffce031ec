package aquago

import (
	"fmt"
	"math"
)

// This file is the network's routing layer: it turns node geometry and
// per-pair channel quality into relay paths. The paper's protocol is
// single-hop by construction (one MAC, one collision domain), but its
// own range results — tens of meters of working range against
// hundreds of meters of deployment — make relaying the obvious scaling
// move. Routing runs entirely above the MAC: a chosen path is walked
// hop by hop by the relay layer (relay.go), and every hop re-enters
// the transmit queue's dispatch gate and the carrier-sense MAC like
// any other Send.
//
// The link graph is the *audibility* graph: a directed edge exists
// between two nodes exactly when they sit within the carrier-sense
// range (WithCSRange; an unlimited range connects everything, so
// routing degenerates to the direct path). That bound is the honest
// one — it is both how far carrier sense coordinates transmitters and
// how far waveform-mode interference reaches, so a hop outside it
// could neither defer to nor be heard by its receiver's neighborhood.

// RoutingPolicy selects how WithRouting picks relay paths.
type RoutingPolicy int

const (
	// MinHop routes over the fewest hops, breaking ties by total
	// geometric path length and then by node index — fully determined
	// by node geometry.
	MinHop RoutingPolicy = iota
	// MinETX routes by minimum expected transmission count: each hop
	// is weighted by 1/(p_fwd * p_bwd), delivery probabilities derived
	// from the pair's channel quality (impulse-response energy over
	// ambient noise, the same seeded realization exchanges use — see
	// sim.Links.PairSNRdB). A marginal long hop loses to two clean
	// short ones exactly when its expected retransmissions cost more.
	MinETX
)

// String names the policy for logs.
func (p RoutingPolicy) String() string {
	switch p {
	case MinHop:
		return "min-hop"
	case MinETX:
		return "min-etx"
	}
	return fmt.Sprintf("RoutingPolicy(%d)", int(p))
}

// WithRouting selects the path-selection policy used by Network.Route
// and the automatic-path entry points (Node.SendBulk). The default is
// MinHop; MinETX additionally weighs per-pair channel quality.
func WithRouting(policy RoutingPolicy) NetworkOption {
	return func(c *networkConfig) { c.routing = policy }
}

// ETX delivery-probability model: a logistic in the pair's estimated
// in-band SNR. The midpoint and scale are calibrated against the
// channel simulator's working range (comfortable delivery at the
// paper's 5-10 m spacings, graded decay towards ~100 m), and the
// floor keeps a terrible-but-audible hop finitely expensive so MinETX
// still returns *a* path when nothing better exists.
const (
	etxMidSNRdB   = 8.0
	etxScaleSNRdB = 4.0
	etxFloorP     = 0.01
)

// hopProbability maps a directed link's estimated SNR onto a delivery
// probability in [etxFloorP, 1].
func hopProbability(snrDB float64) float64 {
	if math.IsInf(snrDB, 1) {
		return 1
	}
	p := 1 / (1 + math.Exp(-(snrDB-etxMidSNRdB)/etxScaleSNRdB))
	if p < etxFloorP {
		p = etxFloorP
	}
	return p
}

// cachedRoute is one routeCache entry: the shortest path and its
// policy cost, kept so a later Join can decide — from one scalar
// Dijkstra rooted at the new node — whether the entry could possibly
// have been beaten (see noteJoinLocked).
type cachedRoute struct {
	path []int
	cost float64
}

// Route computes a relay path from src to dst under the network's
// routing policy (WithRouting; MinHop by default): the returned slice
// starts at src, ends at dst, visits no node twice, and every
// consecutive pair is audible (within the carrier-sense range — with
// an unlimited range this is always the direct [src dst] path).
// Unknown endpoints return ErrUnknownDevice, departed endpoints
// ErrNodeLeft, src == dst ErrBadDeviceID, and a partitioned audibility
// graph ErrNoRoute. Paths never relay through departed nodes. Paths
// and edge weights are cached per geometry; a Join invalidates only
// the paths the new node could actually shorten, a position epoch only
// what the mover made stale (noteMoveLocked), a Leave only the paths
// through the departed node — so repeated sends pay for one
// shortest-path run.
func (n *Network) Route(src, dst DeviceID) ([]DeviceID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	from, ok := n.nodes[src]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDevice, src)
	}
	if from.departed {
		return nil, fmt.Errorf("%w: source %d", ErrNodeLeft, src)
	}
	to, err := n.peerLocked(from, dst)
	if err != nil {
		return nil, err
	}
	idxPath, err := n.routeLocked(from.idx, to.idx)
	if err != nil {
		return nil, err
	}
	path := make([]DeviceID, len(idxPath))
	for i, idx := range idxPath {
		path[i] = n.order[idx].id
	}
	return path, nil
}

// audibleLocked reports whether nodes i and j can hear each other:
// within the carrier-sense range, or always when the range is
// unlimited. Callers hold n.mu.
func (n *Network) audibleLocked(i, j int) bool {
	if i == j {
		return false
	}
	r := n.cfg.csRangeM
	if r <= 0 {
		return true
	}
	return n.order[i].pos.DistanceTo(n.order[j].pos) <= r
}

// hopWeightLocked returns the policy cost of the directed hop
// u -> v. MinHop charges 1 per hop; MinETX charges the expected
// transmission count 1/(p_fwd * p_bwd) — data rides the forward
// link, the ACK the backward one. ETX weights are cached per pair:
// the realization is seeded, so under a fixed geometry the quality
// never changes — pair weights are a function of the two endpoints'
// positions alone, which is why Join never drops this cache and why a
// position epoch drops exactly the mover's pairs (noteMoveLocked)
// before re-probing them. Callers hold n.mu.
func (n *Network) hopWeightLocked(u, v int) (float64, error) {
	if n.cfg.routing != MinETX {
		return 1, nil
	}
	key := [2]int{u, v}
	if w, ok := n.etxCache[key]; ok {
		return w, nil
	}
	fwd, bwd, err := n.links.PairSNRdB(u, v)
	if err != nil {
		return 0, err
	}
	w := 1 / (hopProbability(fwd) * hopProbability(bwd))
	if n.etxCache == nil {
		n.etxCache = make(map[[2]int]float64)
	}
	n.etxCache[key] = w
	// The reverse hop multiplies the same two link probabilities.
	n.etxCache[[2]int{v, u}] = w
	return w, nil
}

// routeItem is one heap entry of the deterministic Dijkstra: the
// labels node idx carried when it was pushed.
type routeItem struct {
	cost float64
	hops int
	lenM float64
	idx  int
}

// before reports whether a precedes b in the full deterministic
// selection order (cost, hops, length, index) — a total order, so
// popping the heap visits nodes exactly as the former global-minimum
// scan did.
func (a routeItem) before(b routeItem) bool {
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

// routeQueue is a binary min-heap of routeItems ordered by before.
// Items are stored by value — container/heap would box every push
// into an interface — and the backing array lives in routeScratch, so
// a warm search pushes and pops without allocating. before is total,
// so the pop sequence is that of any correct priority queue.
type routeQueue []routeItem

func (q *routeQueue) push(it routeItem) {
	h := append(*q, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *routeQueue) pop() routeItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// unreached labels a node no search has reached yet.
const unreached = math.MaxFloat64

// routeScratch is the route layer's search state, kept on the Network
// and used under n.mu: both Dijkstras' label arrays, the heap's
// backing array and the pricing worklist. A search resets what it
// reads instead of allocating, so neither a route build nor a motion
// epoch's re-pricing allocates per node or per edge.
type routeScratch struct {
	cost []float64 // routeLocked's cost labels; the pricing distances
	hops []int
	lenM []float64
	prev []int
	done []bool
	// queue is the heap's backing array.
	queue routeQueue
	// open is the pricing worklist (repriceRoutesLocked).
	open []pricedRoute
}

// reset sizes the label arrays to nn nodes and marks every node
// unreached and unsettled, with an empty heap. hops and lenM are only
// read for nodes whose cost is set, so they are sized, not cleared.
func (s *routeScratch) reset(nn int) {
	if cap(s.cost) < nn {
		s.cost = make([]float64, nn)
		s.hops = make([]int, nn)
		s.lenM = make([]float64, nn)
		s.prev = make([]int, nn)
		s.done = make([]bool, nn)
	}
	s.cost, s.hops, s.lenM = s.cost[:nn], s.hops[:nn], s.lenM[:nn]
	s.prev, s.done = s.prev[:nn], s.done[:nn]
	for i := range s.cost {
		s.cost[i] = unreached
		s.prev[i] = -1
		s.done[i] = false
	}
	s.queue = s.queue[:0]
}

// routeLocked runs deterministic Dijkstra on the audibility graph
// from node index src to dst. Ties break by (cost, hop count, total
// geometric length, node index), so the chosen path is a pure
// function of geometry and seeds — independent of map iteration
// order, worker counts and wall-clock interleaving. Extraction uses a
// lazy-deletion heap keyed by that same order, and relaxation scans
// only the audibility adjacency (the spatial grid's neighbor rows),
// so a build costs O(E log V) on the neighbor graph instead of the
// former O(V^2) scan — the nodes it settles, and the paths it
// returns, are identical. The labels and heap are the reused
// routeScratch, so a build allocates only the path it caches.
// Callers hold n.mu.
func (n *Network) routeLocked(src, dst int) ([]int, error) {
	key := [2]int{src, dst}
	if r, ok := n.routeCache[key]; ok {
		return r.path, nil
	}
	s := &n.routeScratch
	s.reset(len(n.order))
	cost, hops, lenM, prev, done := s.cost, s.hops, s.lenM, s.prev, s.done
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
	pq := &s.queue
	pq.push(routeItem{idx: src})
	for len(*pq) > 0 {
		u := pq.pop().idx
		if done[u] {
			// A better label was pushed after this entry and, having a
			// smaller key, already settled the node (lazy deletion).
			continue
		}
		if u == dst {
			break
		}
		done[u] = true
		var werr error
		n.forEachAudibleLocked(u, func(v int) {
			// A departed node's radio is gone: no path may relay through
			// it (Leave keeps it in the index structures — the water
			// doesn't move — but the route layer must not).
			if done[v] || n.order[v].departed || werr != nil {
				return
			}
			w, err := n.hopWeightLocked(u, v)
			if err != nil {
				werr = err
				return
			}
			c := cost[u] + w
			if c > cost[v] {
				return
			}
			h := hops[u] + 1
			l := lenM[u] + n.order[u].pos.DistanceTo(n.order[v].pos)
			if c < cost[v] || better(c, h, l, u, v) {
				cost[v], hops[v], lenM[v], prev[v] = c, h, l, u
				pq.push(routeItem{cost: c, hops: h, lenM: l, idx: v})
			}
		})
		if werr != nil {
			return nil, werr
		}
	}
	if cost[dst] == unreached {
		return nil, fmt.Errorf("%w: %d -> %d (carrier-sense range %g m)",
			ErrNoRoute, n.order[src].id, n.order[dst].id, n.cfg.csRangeM)
	}
	// Settled labels never change, so dst's hop count is the length of
	// its prev chain.
	path := make([]int, hops[dst]+1)
	for at, i := dst, hops[dst]; i >= 0; at, i = prev[at], i-1 {
		path[i] = at
	}
	if n.routeCache == nil {
		n.routeCache = make(map[[2]int]cachedRoute)
	}
	n.routeCache[key] = cachedRoute{path: path, cost: cost[dst]}
	return path, nil
}

// pricedRoute is a cached route awaiting its pricing verdict
// (repriceRoutesLocked): the entry's key and cached cost, and each
// endpoint's hop floor from the pricing root (hopFloorLocked).
type pricedRoute struct {
	key            [2]int
	cost           float64
	floorA, floorB float64
}

// hopFloorLocked returns a lower bound on the policy distance between
// nodes i and j from geometry alone. Every hop spans at most the
// carrier-sense range and costs at least 1 under both policies, so a
// path across their separation s costs at least ceil(s / range); the
// 1e-9 slack absorbs rounding in the distances (a separation within
// that of a whole number of ranges counts as that number). With an
// unlimited range the floor is the one hop. Callers hold n.mu.
func (n *Network) hopFloorLocked(i, j int) float64 {
	if i == j {
		return 0
	}
	r := n.cfg.csRangeM
	if r <= 0 {
		return 1
	}
	return math.Max(1, math.Ceil(n.order[i].pos.DistanceTo(n.order[j].pos)/r-1e-9))
}

// repriceRoutesLocked deletes every cached route that node idx could
// have changed: each route walking through idx, and each route (a, b)
// a path through idx could beat or tie — d[a] + d[b] <= cost, with d
// the policy distance from idx (the argument is noteJoinLocked's).
//
// d comes from a cost-only Dijkstra rooted at idx, run only as far as
// the verdicts need. Every node v has d[v] >= floor[v], its hop floor
// from idx; when the heap pops key L, every node not yet settled also
// has d >= L. Float addition is monotone, so with lb = max(L, floor):
//
//   - an entry with both endpoints settled is decided exactly;
//   - one endpoint settled at d[a]: d[a] + d[b] >= d[a] + lb[b];
//   - neither settled: d[a] + d[b] >= lb[a] + lb[b].
//
// Once that lower bound exceeds the cached cost the entry stands,
// whatever the rest of the search would find, and it leaves the
// worklist; an entry whose endpoints' floors already exceed it never
// enters, and an empty worklist needs no search. The search stops when
// the worklist is empty — at the latest at the first pop above the
// largest cached cost. The bounded search is a prefix of the unbounded
// one, so every settled distance is bit-identical, nodes it never
// reaches (unreachable or departed) count as infinitely far, and
// exactly the entries an unbounded pricing would delete are deleted.
// If an edge weight cannot be computed (a link refuses to build), the
// route cache is dropped wholesale — correct, merely slower. Callers
// hold n.mu.
func (n *Network) repriceRoutesLocked(idx int) {
	if len(n.routeCache) == 0 {
		return
	}
	s := &n.routeScratch
	open := s.open[:0]
	//aqualint:order-independent each entry is tested for the node and deleted or queued for pricing independently; the verdicts, and so the surviving set, are the same whatever order the entries are visited in
	for key, r := range n.routeCache {
		if pathContains(r.path, idx) {
			delete(n.routeCache, key)
			continue
		}
		e := pricedRoute{key: key, cost: r.cost,
			floorA: n.hopFloorLocked(idx, key[0]), floorB: n.hopFloorLocked(idx, key[1])}
		if e.floorA+e.floorB <= e.cost {
			open = append(open, e)
		}
	}
	if len(open) == 0 {
		s.open = open
		return
	}
	s.reset(len(n.order))
	dist, done := s.cost, s.done
	dist[idx] = 0
	pq := &s.queue
	pq.push(routeItem{idx: idx})
	// rescan is the key past which the worklist is next examined: the
	// largest key at which the last scan's survivors could fall to
	// their lower bounds (none can at key 0, having entered the list).
	// An entry decided meanwhile by both endpoints settling waits for
	// that scan; the verdict is the same, merely found later.
	rescan := 0.0
	for len(*pq) > 0 {
		it := pq.pop()
		if it.cost > rescan {
			if open, rescan = n.priceVerdictsLocked(open, it.cost); len(open) == 0 {
				break
			}
		}
		u := it.idx
		if done[u] {
			continue
		}
		done[u] = true
		var werr error
		n.forEachAudibleLocked(u, func(v int) {
			// Departed nodes relay nothing (see routeLocked).
			if done[v] || n.order[v].departed || werr != nil {
				return
			}
			w, err := n.hopWeightLocked(u, v)
			if err != nil {
				werr = err
				return
			}
			if c := dist[u] + w; c < dist[v] {
				dist[v] = c
				pq.push(routeItem{cost: c, idx: v})
			}
		})
		if werr != nil {
			n.routeCache = nil
			s.open = open[:0]
			return
		}
	}
	// The heap ran dry: every reachable node is settled, so the rest
	// are decided exactly or have an unreachable endpoint.
	open, _ = n.priceVerdictsLocked(open, math.Inf(1))
	s.open = open[:0]
}

// priceVerdictsLocked decides every worklist entry the pricing search
// already can, given that no unsettled node is closer than atLeast
// (see repriceRoutesLocked): a beatable entry is deleted from the
// route cache, and every decided entry leaves the worklist. It returns
// the undecided rest and the largest key at which one of them could
// still be decided by its lower bound alone — past it, a rescan is
// worth its cost. Callers hold n.mu.
func (n *Network) priceVerdictsLocked(open []pricedRoute, atLeast float64) ([]pricedRoute, float64) {
	dist, done := n.routeScratch.cost, n.routeScratch.done
	rescan := atLeast
	for i := 0; i < len(open); {
		e := open[i]
		a, b := e.key[0], e.key[1]
		var lower, reach float64
		switch {
		case done[a] && done[b]:
			if dist[a]+dist[b] <= e.cost {
				delete(n.routeCache, e.key)
			}
			lower = math.Inf(1)
		case done[a]:
			lower, reach = dist[a]+math.Max(atLeast, e.floorB), e.cost-dist[a]
		case done[b]:
			lower, reach = dist[b]+math.Max(atLeast, e.floorA), e.cost-dist[b]
		default:
			lower = math.Max(atLeast, e.floorA) + math.Max(atLeast, e.floorB)
			reach = e.cost - math.Max(e.cost/2, math.Max(e.floorA, e.floorB))
		}
		if lower > e.cost {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
			continue
		}
		if reach > rescan {
			rescan = reach
		}
		i++
	}
	return open, rescan
}

// noteJoinLocked invalidates exactly the cached routes the node that
// just joined (index newIdx) could have changed. A former
// implementation dropped the route *and* ETX caches wholesale on
// every Join — quadratically wasteful during a large build-out, and
// wrong about the ETX cache, whose pair weights depend only on the
// two endpoints' geometry and never go stale.
//
// A cached (a, b) entry was optimal on the old graph. Any strictly
// better path on the new graph must pass through the new node (a path
// avoiding it existed before and could not beat the optimum), and
// such a path costs at least d[a] + d[b], the new node's policy
// distances to the endpoints — both policies' weights are symmetric.
// So an entry is stale only if d[a] + d[b] <= its cached cost; the
// equality case guards the deterministic tie-break, which an
// equal-cost path through the new node can win on hops, length or
// index. One bounded scalar Dijkstra rooted at the new node prices
// every cached entry (repriceRoutesLocked; no cached path can walk
// through a node that just joined). Callers hold n.mu.
func (n *Network) noteJoinLocked(newIdx int) {
	n.repriceRoutesLocked(newIdx)
}

// noteMoveLocked invalidates what a position epoch of node idx made
// stale, without touching the rest of the caches:
//
//   - every ETX pair weight touching the mover (pair weights are a
//     function of the two endpoints' positions — the mover's changed);
//   - every cached route that *walks through* the mover (its hop
//     geometry changed, and hops into or out of it may no longer be
//     audible);
//   - and, by the same symmetric-weight pricing argument as
//     noteJoinLocked, every surviving entry the mover's new position
//     could beat: a strictly better path on the new graph must pass
//     through the mover, costing at least d[a] + d[b] from its new
//     position (<= also invalidates, guarding the tie-break).
//
// A pair is only ever probed across an audible edge, and a move by
// either endpoint drops it, so the mover's cached ETX pairs all lie
// in oldRow, its adjacency row before the move (every node when the
// carrier-sense range is unlimited) — the drop costs the mover's
// degree, not a scan of every probed pair. The pricing Dijkstra runs
// over the already-patched adjacency and lazily re-probes the mover's
// ETX weights at the new position through hopWeightLocked — the
// per-epoch ETX re-probe. Entries avoiding the mover and priced safe
// kept their exact old cost: no other pair's geometry changed.
// Callers hold n.mu, after patchAdjacencyLocked.
func (n *Network) noteMoveLocked(idx int, oldRow []int) {
	if len(n.etxCache) > 0 {
		drop := func(v int) {
			delete(n.etxCache, [2]int{idx, v})
			delete(n.etxCache, [2]int{v, idx})
		}
		if n.neighbors == nil {
			for v := range n.order {
				drop(v)
			}
		} else {
			for _, v := range oldRow {
				drop(v)
			}
		}
	}
	n.repriceRoutesLocked(idx)
}

// noteLeaveLocked invalidates the cached routes that relay through the
// node that just departed (index idx) — the Leave-time counterpart of
// noteJoinLocked, fixing the stale-path bug where Route kept returning
// cached paths through departed radios. Only paths *through* the node
// go: a departure adds no edges, so every other cached path is still
// optimal. ETX pair weights stay — they are pure pair geometry, and
// routeLocked's departed-skip already keeps the dead node out of new
// paths. Callers hold n.mu.
func (n *Network) noteLeaveLocked(idx int) {
	//aqualint:order-independent each entry's path is tested for the departed node and deleted independently; the surviving set is the same whatever order the entries are visited in
	for key, r := range n.routeCache {
		if pathContains(r.path, idx) {
			delete(n.routeCache, key)
		}
	}
}

// pathContains reports whether the node index appears on the path.
func pathContains(path []int, idx int) bool {
	for _, p := range path {
		if p == idx {
			return true
		}
	}
	return false
}
