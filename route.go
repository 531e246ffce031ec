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
// policy cost, kept so a later Join or move can decide from its
// endpoints' hop floors whether the entry could possibly have been
// beaten (see dropBeatableRoutesLocked).
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
// and edge weights are cached per geometry; a Join or a position epoch
// invalidates the paths through the node and the paths its hop floors
// say it might shorten (dropBeatableRoutesLocked), a Leave only the
// paths through the departed node — so repeated sends pay for one
// shortest-path run.
func (n *Network) Route(src, dst DeviceID) ([]DeviceID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	from, ok := n.nodes[src]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDevice, src)
	}
	if n.departed[from.idx] {
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
	return n.pos[i].DistanceTo(n.pos[j]) <= r
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

// routeItem is one heap entry of the route search: its heap key — the
// cost plus the node's hop floor to the destination — and the labels
// node idx carried when it was pushed.
type routeItem struct {
	key  float64
	cost float64
	hops int
	lenM float64
	idx  int
}

// before reports whether a precedes b: by key, then in the full
// deterministic selection order (cost, hops, length, index) — a total
// order, so the pop sequence is that of any correct priority queue.
func (a routeItem) before(b routeItem) bool {
	switch {
	case a.key != b.key:
		return a.key < b.key
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

// routeScratch is the route build's search state, kept on the Network
// and used under n.mu: routeLocked's label arrays and the heap's
// backing array. A build resets them instead of allocating, so it
// allocates nothing per node or per edge.
type routeScratch struct {
	cost []float64
	hops []int
	lenM []float64
	prev []int
	done []bool
	// queue is the heap's backing array.
	queue routeQueue
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

// routeLocked finds the shortest path on the audibility graph from
// node index src to dst. Ties break by (cost, hop count, total
// geometric length, predecessor index), so the chosen path is a pure
// function of geometry and seeds — independent of map iteration
// order, worker counts and wall-clock interleaving.
//
// The search is A*: the labels and tie-breaks are Dijkstra's, but the
// heap pops by key = cost + hopFloorLocked(v, dst), then by (cost,
// hops, length, index). The floor is consistent: a hop u -> v spans at
// most the carrier-sense range, so u's floor exceeds v's by at most
// one, and every hop costs at least 1 under both policies, so a key
// never falls along an edge. So every node that could still lower v's
// label, or tie its cost and win the tie-break, pops before v — its
// key is no larger, and on a tied key its cost is smaller — and each
// node settles with exactly the label an undirected Dijkstra gives it,
// dst and its whole predecessor chain included: the paths are
// identical, but the floor steers the search along the src-dst line
// instead of settling a disk around src. The argument holds in float64
// too: MinHop costs and keys are exact small integers, and a MinETX
// weight exceeds 1 by far more than a rounding of the costs, unless
// the links are noise-free, where every weight is exactly 1 and the
// costs are integers again.
//
// Relaxation scans the node's audibility row (audibleRowLocked) and
// reads positions and Leave state from the dense per-index arrays; the
// labels and heap are the reused routeScratch, so a build allocates
// only the path it caches. Callers hold n.mu.
func (n *Network) routeLocked(src, dst int) ([]int, error) {
	key := [2]int{src, dst}
	if r, ok := n.routeCache[key]; ok {
		return r.path, nil
	}
	s := &n.routeScratch
	s.reset(len(n.order))
	cost, hops, lenM, prev, done := s.cost, s.hops, s.lenM, s.prev, s.done
	pos, departed := n.pos, n.departed
	etx := n.cfg.routing == MinETX
	cost[src], hops[src], lenM[src] = 0, 0, 0
	pq := &s.queue
	pq.push(routeItem{key: n.hopFloorLocked(src, dst), idx: src})
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
		cu, h, lu, pu := cost[u], hops[u]+1, lenM[u], pos[u]
		for _, v := range n.audibleRowLocked(u) {
			// A departed node's radio is gone: no path may relay through
			// it (Leave keeps it in the index structures — the water
			// doesn't move — but the route layer must not).
			if done[v] || departed[v] {
				continue
			}
			c := cu + 1
			if etx {
				w, err := n.hopWeightLocked(u, v)
				if err != nil {
					return nil, err
				}
				c = cu + w
			}
			if c > cost[v] {
				continue
			}
			l := lu + pu.DistanceTo(pos[v])
			if c == cost[v] && (h > hops[v] || (h == hops[v] && (l > lenM[v] || (l == lenM[v] && u >= prev[v])))) {
				continue // v's label ties the cost and wins the tie-break
			}
			cost[v], hops[v], lenM[v], prev[v] = c, h, l, u
			pq.push(routeItem{key: c + n.hopFloorLocked(v, dst), cost: c, hops: h, lenM: l, idx: v})
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
	return math.Max(1, math.Ceil(n.pos[i].DistanceTo(n.pos[j])/r-1e-9))
}

// dropBeatableRoutesLocked deletes every cached route that node idx —
// just joined, or just moved — could have changed: each route walking
// through idx, and each route (a, b) whose endpoints' hop floors from
// idx admit a path through it that beats or ties the cached cost.
//
// A cached (a, b) entry was optimal on the old graph. A strictly better
// path on the new graph must pass through idx (a path avoiding it
// existed before — no other node's position changed — and could not
// beat the optimum), and such a path costs at least d[a] + d[b], idx's
// policy distances to the endpoints; both policies' weights are
// symmetric. Every d[v] is at least the hop floor from idx
// (hopFloorLocked), and float addition is monotone, so an entry with
// floor[a] + floor[b] > cost can be neither beaten nor tied (a tie
// could win the deterministic tie-break on hops, length or index): it
// is exactly what a fresh routeLocked returns, and it stays. Every
// other entry is deleted without pricing it. Over-invalidation costs
// only a rebuild: on the harbor workload the former per-mover pricing
// Dijkstra, which proved some of these entries safe, settled about 620
// nodes a search — several times the cost of the A* rebuilds it saved.
// The rule reads positions only, so it probes no channel link under
// MinETX. Callers hold n.mu.
func (n *Network) dropBeatableRoutesLocked(idx int) {
	//aqualint:order-independent each entry is tested and deleted independently; the surviving set is the same whatever order the entries are visited in
	for key, r := range n.routeCache {
		if n.hopFloorLocked(idx, key[0])+n.hopFloorLocked(idx, key[1]) <= r.cost || pathContains(r.path, idx) {
			delete(n.routeCache, key)
		}
	}
}

// noteJoinLocked invalidates the cached routes the node that just
// joined (index newIdx) could have shortened (dropBeatableRoutesLocked;
// no cached path can walk through a node that just joined). A former
// implementation dropped the route *and* ETX caches wholesale on every
// Join — quadratically wasteful during a large build-out, and wrong
// about the ETX cache, whose pair weights depend only on the two
// endpoints' geometry and never go stale. Callers hold n.mu.
func (n *Network) noteJoinLocked(newIdx int) {
	n.dropBeatableRoutesLocked(newIdx)
}

// noteMoveLocked invalidates what a position epoch of node idx made
// stale, without touching the rest of the caches:
//
//   - every ETX pair weight touching the mover (pair weights are a
//     function of the two endpoints' positions — the mover's changed);
//   - every cached route that walks through the mover (its hop
//     geometry changed, and hops into or out of it may no longer be
//     audible), and every route its new position's hop floors admit a
//     shortcut for (dropBeatableRoutesLocked).
//
// A pair is only ever probed across an audible edge, and a move by
// either endpoint drops it, so the mover's cached ETX pairs all lie
// in oldRow, its adjacency row before the move (every node when the
// carrier-sense range is unlimited) — the drop costs the mover's
// degree, not a scan of every probed pair. Nothing is re-probed here:
// the next route build that relaxes an edge of the mover probes it at
// the new position through hopWeightLocked. Surviving entries kept
// their exact old cost: no other pair's geometry changed. Callers hold
// n.mu, after patchAdjacencyLocked.
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
	n.dropBeatableRoutesLocked(idx)
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
