package aquago

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file is the network's motion layer: position as a function of
// virtual time. The paper's headline scenarios are divers and drones
// drifting through the water column, and until this layer existed the
// simulation contradicted its own physics — WithNodeMotion perturbed
// the channel's Doppler/fading model while every position, audibility
// edge, grid bucket, conflict edge and cached route stayed frozen at
// Join.
//
// Motion is applied in *position epochs*: an explicit, atomic
// geometry update (Node.SetPosition for one node, Network.AdvanceMotion
// for every node carrying a MotionTrack) that propagates through every
// geometry consumer before the next exchange can observe it —
//
//   - the envelope medium's positions (sim.Medium.SetPosition),
//   - the spatial grid's cell buckets (sim.Grid.Move),
//   - the audibility adjacency rows (patchAdjacencyLocked),
//   - the per-pair channel link caches, live and waveform-bank
//     (sim.Links.InvalidateNode — moved pairs rebuild their impulse
//     responses from the new geometry on next use),
//   - the route and ETX caches (noteMoveLocked, mirroring the PR 6
//     incremental Join invalidation).
//
// The transmit queue's dispatch gate reads current geometry at each
// decision, so queued jobs gate against the new positions; jobs
// already inflight are never re-gated (a radio cannot un-hear a
// grant).
//
// Epochs are explicit rather than implicit (no hidden interpolation
// inside the MAC gate) because determinism demands it: an epoch is a
// pure function of (current state, target positions), applied under
// the network lock in ascending node-index order, so results are
// identical for any worker count. Apply epochs at quiescent points —
// between transfers, between bulk chunks — for physically meaningful
// results; the epoch discipline bounds the geometry skew of retained
// on-air history to one epoch (DESIGN.md's mobility section).

// Waypoint pins a position at a virtual time (seconds) on a
// MotionTrack.
type Waypoint struct {
	// AtS is the virtual time the node passes Pos.
	AtS float64
	// Pos is the waypoint's position.
	Pos Position
}

// MotionTrack is a piecewise-linear trajectory over virtual time:
// between consecutive waypoints the position interpolates linearly
// (constant velocity); before the first and after the last waypoint it
// clamps (the node holds station). Tracks are absolute — waypoint
// positions are world coordinates on the same axes as Join — and are
// evaluated by Network.AdvanceMotion on the shared virtual timeline.
type MotionTrack struct {
	Waypoints []Waypoint
}

// validate rejects unusable tracks: no waypoints, non-finite times or
// coordinates, or times not strictly ascending.
func (tr MotionTrack) validate() error {
	if len(tr.Waypoints) == 0 {
		return fmt.Errorf("%w: no waypoints", ErrBadTrack)
	}
	for i, wp := range tr.Waypoints {
		if !finite(wp.AtS) || !finitePos(wp.Pos) {
			return fmt.Errorf("%w: waypoint %d is not finite (%+v at %v s)", ErrBadTrack, i, wp.Pos, wp.AtS)
		}
		if i > 0 && wp.AtS <= tr.Waypoints[i-1].AtS {
			return fmt.Errorf("%w: waypoint times must strictly ascend (%g s then %g s)",
				ErrBadTrack, tr.Waypoints[i-1].AtS, wp.AtS)
		}
	}
	return nil
}

// At evaluates the track at virtual time tS: linear interpolation
// between the bracketing waypoints, clamped to the endpoints outside
// the track's time span.
func (tr MotionTrack) At(tS float64) Position {
	wps := tr.Waypoints
	if len(wps) == 0 {
		return Position{}
	}
	if tS <= wps[0].AtS {
		return wps[0].Pos
	}
	if tS >= wps[len(wps)-1].AtS {
		return wps[len(wps)-1].Pos
	}
	// First waypoint at or after tS; i >= 1 because tS > wps[0].AtS.
	i := sort.Search(len(wps), func(k int) bool { return wps[k].AtS >= tS })
	a, b := wps[i-1], wps[i]
	f := (tS - a.AtS) / (b.AtS - a.AtS)
	return Position{
		X: a.Pos.X + f*(b.Pos.X-a.Pos.X),
		Y: a.Pos.Y + f*(b.Pos.Y-a.Pos.Y),
		Z: a.Pos.Z + f*(b.Pos.Z-a.Pos.Z),
	}
}

// DriftTrack builds a constant-velocity track: from the given position
// at virtual time 0, drifting at (vxMS, vyMS, vzMS) meters per second
// for durS seconds, then holding station. The usual diver model: pass
// the Join position as from so the track takes over seamlessly at the
// first epoch.
func DriftTrack(from Position, vxMS, vyMS, vzMS, durS float64) MotionTrack {
	return MotionTrack{Waypoints: []Waypoint{
		{AtS: 0, Pos: from},
		{AtS: durS, Pos: Position{
			X: from.X + vxMS*durS,
			Y: from.Y + vyMS*durS,
			Z: from.Z + vzMS*durS,
		}},
	}}
}

// WithMotionTrack attaches a motion track to the node: each
// Network.AdvanceMotion(toS) epoch moves the node to its track
// position at toS. The track governs *geometry*; pair WithNodeMotion
// with it so the channel's Doppler/fading model matches the physical
// speed (WithNodeMotion alone varies only the channel — see its doc).
// Join validates the track (ErrBadTrack); the Join position stays
// authoritative until the first epoch, so start the track at the Join
// position to avoid an initial jump.
func WithMotionTrack(tr MotionTrack) NodeOption {
	return func(c *nodeConfig) { c.track, c.trackSet = tr, true }
}

// MotionEpoch reports one AdvanceMotion application.
type MotionEpoch struct {
	// AtS is the epoch's effective virtual time (the motion clock,
	// which never runs backward).
	AtS float64
	// Moved lists the devices whose position changed this epoch, in
	// join order.
	Moved []DeviceID
	// Parked lists devices whose target position was refused because it
	// would bring them within earshot of another node sharing their
	// on-air tone (ErrAddressClash re-validated under motion): a parked
	// node holds its previous position and re-tries at the next epoch.
	Parked []DeviceID
}

// AdvanceMotion advances the network's motion clock to toS and moves
// every track-carrying node to its track position at that time — one
// position epoch, applied atomically in ascending join order and
// propagated through the grid, adjacency, link caches and route
// caches before returning. The motion clock is
// monotone: a toS at or before the current clock re-evaluates tracks
// at the clock (normally a no-op).
//
// Moving a node raises its commit frontier to the epoch time and to
// its new neighborhood's frontier — the node is *there* from toS on,
// so its next transmission cannot be inserted into virtual history its
// new neighbors already committed. A target position that would put
// two same-tone nodes within earshot parks the mover instead (see
// MotionEpoch.Parked). Deterministic and worker-count invariant: the
// epoch is a pure function of current state and the tracks.
func (n *Network) AdvanceMotion(toS float64) (MotionEpoch, error) {
	if !finite(toS) {
		return MotionEpoch{}, fmt.Errorf("%w: non-finite epoch time %v", ErrBadTrack, toS)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if toS > n.motionClockS {
		n.motionClockS = toS
	}
	ep := MotionEpoch{AtS: n.motionClockS, Moved: make([]DeviceID, 0, n.tracked)}
	for _, nd := range n.order {
		if !nd.hasTrack || n.departed[nd.idx] {
			continue
		}
		target := nd.track.At(n.motionClockS)
		if target == n.pos[nd.idx] {
			continue
		}
		if err := n.setPositionLocked(nd, target); err != nil {
			if errors.Is(err, ErrAddressClash) {
				ep.Parked = append(ep.Parked, nd.id)
				continue
			}
			return ep, err
		}
		ep.Moved = append(ep.Moved, nd.id)
		if n.motionClockS > n.frontier[nd.idx] {
			n.frontier[nd.idx] = n.motionClockS
		}
	}
	return ep, nil
}

// SetPosition moves the node — one single-node position epoch,
// propagated exactly like AdvanceMotion's (grid re-bucket, adjacency
// patch, link-cache invalidation, incremental route/ETX invalidation,
// frontier lift). A move that would bring the node
// within earshot of another node sharing its on-air tone is refused
// with ErrAddressClash and the position is unchanged — the same
// spatial tone-reuse rule Join enforces, re-validated under motion.
// Departed nodes refuse with ErrNodeLeft; non-finite coordinates with
// ErrBadTrack. A move to the current position is a no-op.
func (nd *Node) SetPosition(p Position) error {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.departed[nd.idx] {
		return fmt.Errorf("%w: node %d", ErrNodeLeft, nd.id)
	}
	return n.setPositionLocked(nd, p)
}

// MotionEpochs returns how many position epochs have been applied (the
// count of individual node moves). Zero means the geometry is still
// exactly the Join-time geometry — the static fast paths are
// byte-identical to a network without a motion layer.
func (n *Network) MotionEpochs() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.geoEpoch
}

// setPositionLocked applies one node's position epoch: validate,
// re-check the spatial tone-reuse rule at the target, then propagate
// the new geometry through every consumer. Callers hold n.mu.
func (n *Network) setPositionLocked(nd *Node, p Position) error {
	if !finitePos(p) {
		return fmt.Errorf("%w: non-finite position %+v", ErrBadTrack, p)
	}
	if p == n.pos[nd.idx] {
		return nil
	}
	if other := n.toneClashAtLocked(p, nd.tone, nd.idx); other != nil {
		return fmt.Errorf("%w: moving ID %d within %s of ID %d (shared on-air tone %d)",
			ErrAddressClash, nd.id, audibleRangeLabel(n.cfg.csRangeM), other.id, nd.tone)
	}
	apply := func() {
		n.med.SetPosition(nd.idx, p)
		n.links.InvalidateNode(nd.idx)
		if n.bank != nil {
			n.bank.InvalidateNode(nd.idx)
		}
	}
	if n.bank != nil {
		// Concurrent waveform mixes read medium geometry and the bank's
		// link cache under the bank's lock; moves mutate both under it.
		n.bank.Sync(apply)
	} else {
		apply()
	}
	n.grid.Move(nd.idx, p)
	n.pos[nd.idx] = p
	oldRow := n.patchAdjacencyLocked(nd.idx)
	n.noteMoveLocked(nd.idx, oldRow)
	// Causality: the mover materializes in its new neighborhood *now* —
	// its next send may not start inside virtual history its new
	// neighbors have already committed (their carrier sense could not
	// have heard it; it was elsewhere).
	f := n.frontier[nd.idx]
	for _, j := range n.audibleRowLocked(nd.idx) {
		if n.frontier[j] > f {
			f = n.frontier[j]
		}
	}
	n.frontier[nd.idx] = f
	n.geoEpoch++
	return nil
}

// toneClashAtLocked returns a node (other than selfIdx) that shares
// the given on-air tone within carrier-sense audibility of pos, or nil
// — the spatial tone-reuse check Join runs, reusable at any candidate
// position. Callers hold n.mu.
func (n *Network) toneClashAtLocked(pos Position, tone DeviceID, selfIdx int) *Node {
	if n.grid.Enabled() {
		n.gridScratch = n.grid.AppendWithin(n.gridScratch[:0], pos, n.cfg.csRangeM)
		for _, j := range n.gridScratch {
			if j != selfIdx && n.order[j].tone == tone {
				return n.order[j]
			}
		}
		return nil
	}
	for j, other := range n.order {
		if j != selfIdx && other.tone == tone {
			return other
		}
	}
	return nil
}

// patchAdjacencyLocked rewrites the audibility adjacency after node
// idx moved: its own row is recomputed from the grid at the new
// position, and every other row gains or loses idx as the move brought
// it into or out of earshot. Rows stay ascending (the diff walks both
// sorted rows in lockstep). It returns the mover's pre-move row, which
// the route layer needs to find the mover's cached ETX pairs. No-op
// returning nil in brute-force mode (unlimited carrier-sense range —
// adjacency is implicit).
//
// The new row is built in rowScratch and the two swap: the mover keeps
// the new row, and its pre-move storage becomes the scratch, which is
// what this returns — valid until the next patch. Moves therefore
// allocate no rows once the scratch has grown to the largest row.
// Callers hold n.mu.
func (n *Network) patchAdjacencyLocked(idx int) []int {
	if n.neighbors == nil {
		return nil
	}
	n.gridScratch = n.grid.AppendWithin(n.gridScratch[:0], n.pos[idx], n.cfg.csRangeM)
	row := n.rowScratch[:0]
	for _, j := range n.gridScratch {
		if j != idx {
			row = append(row, j)
		}
	}
	old := n.neighbors[idx]
	i, k := 0, 0
	for i < len(old) || k < len(row) {
		switch {
		case k >= len(row) || (i < len(old) && old[i] < row[k]):
			// Out of earshot now: the peer's row loses the mover.
			n.neighbors[old[i]] = dropSorted(n.neighbors[old[i]], idx)
			i++
		case i >= len(old) || row[k] < old[i]:
			// Newly audible: the peer's row gains the mover.
			n.neighbors[row[k]] = insertSorted(n.neighbors[row[k]], idx)
			k++
		default:
			i++
			k++
		}
	}
	n.neighbors[idx], n.rowScratch = row, old
	return old
}

// dropSorted removes v from the ascending slice s (v present by
// contract).
func dropSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	return append(s[:i], s[i+1:]...)
}

// insertSorted inserts v into the ascending slice s (v absent by
// contract).
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// finite reports whether v is a usable coordinate or time.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finitePos reports whether every coordinate of p is finite.
func finitePos(p Position) bool { return finite(p.X) && finite(p.Y) && finite(p.Z) }
