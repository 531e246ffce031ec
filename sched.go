package aquago

import (
	"context"
	"math"

	"aquago/internal/mac"
)

// This file is the network's per-attempt MAC step and its
// virtual-time bookkeeping.
//
// Ordering lives in one place: the transmit queue's dispatch gate
// (txq.go). Every send — SendAsync, Enqueue, the blocking Send and
// SendVia, the bulk relay and the stream — is a queued job, and a job
// dispatches only when no live job that could interfere with it exists
// (inflight, or queued ahead of it). Two jobs interfere when they share
// a node, or (with a finite carrier-sense range) any cross-pair
// distance is within that range, which bounds both carrier sense and
// waveform audibility. Hence:
//
//   - conflicting exchanges run one at a time in deterministic
//     (priority, enqueue-sequence) order: the carrier sense each grant
//     consults, and (in waveform mode) the interference each receive
//     window hears, are exactly the committed traffic of its
//     predecessors, independent of worker count;
//   - non-conflicting exchanges hold no common state — disjoint link
//     objects, mutually inaudible waves, untouched scoped frontiers —
//     and run concurrently on the worker slots;
//   - each node is an endpoint of at most one inflight job, since two
//     jobs sharing a node conflict: one radio per device.
//
// Each attempt of a dispatched job passes beginAttempt: bump past the
// node's scoped frontier, carrier-sense until the MAC grants, claim a
// worker slot; commitAttempt or abortAttempt then releases it.
//
// Virtual-time causality, formerly one global commit frontier, is
// scoped per node: a grant at start s pushes the frontier of every node
// that could have heard it (within carrier-sense range — the spatial
// grid's audibility adjacency, not a scan of all nodes) to s + one
// sense interval, so a later send on such a node can never start in the
// already-simulated past — while an out-of-range node's timeline is
// left alone, as real acoustics would. The envelope log is pruned at
// the *minimum* horizon any node could still poll or transmit at
// (lagging idle nodes and granted-but-uncommitted attempts pin it), so
// a transmission is never dropped while some node could yet hear it
// busy or collide with it.

// pruneEvery throttles the envelope/wave log prune: the minimum-bound
// scan is O(nodes), so running it once per batch of attempts instead
// of once per attempt keeps each attempt's bookkeeping O(audible
// neighbors) at thousands of nodes. Prune only ever drops provably inert transmissions, so the
// schedule of pruning cannot change any result — only peak memory.
const pruneEvery = 32

// SchedulerStats reports what the dispatch gate and the per-attempt
// MAC step have done so far — primarily how much exchange-level
// parallelism geometry allowed.
type SchedulerStats struct {
	// Granted counts MAC-granted transmission attempts.
	Granted int
	// Committed counts attempts that completed their exchange and were
	// registered on the envelope medium (Granted minus aborts).
	Committed int
	// AirtimeS totals the committed attempts' actual on-air time in
	// virtual seconds (per-attempt airtime is available through
	// WithExchangeProbe); AirtimeS over elapsed virtual time is the
	// offered channel utilization.
	AirtimeS float64
	// ConflictEdges counts dispatch-gate holds: queued jobs the gate
	// held back, at least once, behind a conflicting live job — the
	// serialization the geometry actually demanded. Like MaxConcurrent
	// it is a wall-clock observation (it depends on which jobs happened
	// to coexist), so it is not deterministic run to run.
	ConflictEdges int
	// MaxConcurrent is the peak number of exchanges that were running
	// simultaneously on worker slots. Unlike the counters above it is a
	// wall-clock observation: it depends on how exchanges happened to
	// overlap in real time, so it is not deterministic run to run.
	MaxConcurrent int
	// Workers is the worker-slot budget the network resolved
	// (WithNetworkWorkers; 0 resolves to one per CPU core).
	Workers int
}

// SchedulerStats returns the scheduler counters.
func (n *Network) SchedulerStats() SchedulerStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.Workers = cap(n.sem)
	return st
}

// interferes reports whether exchanges on pairs (a1, b1) and (a2, b2)
// could interact: a shared node always conflicts; otherwise, with an
// unlimited carrier-sense range every pair conflicts, and with a finite
// range only pairs with some cross distance within it do. Callers hold
// n.mu.
func (n *Network) interferes(a1, b1, a2, b2 int) bool {
	if a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2 {
		return true
	}
	r := n.cfg.csRangeM
	if r <= 0 {
		return true
	}
	p := func(i int) Position { return n.order[i].pos }
	for _, x := range [2]int{a1, b1} {
		for _, y := range [2]int{a2, b2} {
			if p(x).DistanceTo(p(y)) <= r {
				return true
			}
		}
	}
	return false
}

// bumpFrontierLocked advances the scoped commit frontier of every node
// that could have heard a transmission from node x: its next attempt
// may not start before fS. The audibility adjacency bounds the walk to
// x's spatial neighborhood.
func (n *Network) bumpFrontierLocked(x int, fS float64) {
	if fS > n.frontier[x] {
		n.frontier[x] = fS
	}
	n.forEachAudibleLocked(x, func(idx int) {
		if fS > n.frontier[idx] {
			n.frontier[idx] = fS
		}
	})
}

// pruneLocked folds the envelope ledger and drops stale wave-bank
// samples at the global minimum bound: the earliest virtual time any
// node could still open a receive window, poll carrier sense, or start
// a transmission at — max(own clock, scoped frontier), pinned by a
// granted-but-uncommitted attempt (both endpoints open windows from
// its start). Both logs must use the global minimum: collision
// accounting is range-independent (any node still at a low virtual
// time may yet overlap old packets), and a wave's audibility window is
// opened by *transmitters* — any lagging node may address an in-range
// receiver of the wave, whose windows then sit in that receiver's
// virtual past. A deliberately idle, out-of-range node therefore pins
// both ledgers until it advances (sends, or hears an in-range grant);
// that is the honest cost of scoped timelines, and it clears the
// moment the laggard participates. Under the common configurations —
// unlimited carrier-sense range, or islands whose nodes all carry
// traffic — every bound advances and both logs stay bounded.
func (n *Network) pruneLocked() {
	horizon := math.Inf(1)
	for i, nd := range n.order {
		horizon = min(horizon, max(nd.clockS, n.frontier[i]), nd.pinS)
	}
	if math.IsInf(horizon, 1) {
		return
	}
	n.med.Prune(horizon, n.wcAirtimeS)
	if n.bank != nil {
		n.bank.Prune(horizon)
	}
}

// maybePruneLocked amortizes pruneLocked across admissions (see
// pruneEvery).
func (n *Network) maybePruneLocked() {
	n.sincePrune++
	if n.sincePrune < pruneEvery {
		return
	}
	n.sincePrune = 0
	n.pruneLocked()
}

// beginAttempt is one attempt of a dispatched job (nd transmits to
// peer): it bumps the attempt past the node's scoped frontier, prunes
// the logs, runs the carrier-sense MAC, pins both endpoints at the
// granted start, and claims a worker slot. The dispatch gate already
// excludes every conflicting exchange for the job's whole life, so the
// attempt never waits on another. On success the caller MUST later
// release it through commitAttempt or abortAttempt.
func (n *Network) beginAttempt(ctx context.Context, nd, peer *Node, readyS float64) (float64, error) {
	n.mu.Lock()
	if err := ctx.Err(); err != nil {
		n.mu.Unlock()
		return 0, err
	}
	if f := n.frontier[nd.idx]; readyS < f {
		readyS = f
	}
	n.maybePruneLocked()
	// The backoff quantum: the worst-case full-band airtime by
	// default, the last committed attempt's actual (adapted-band)
	// airtime under WithAdaptiveBackoff — a node that just ran on a
	// wide band serves proportionally shorter backoffs.
	quantum := nd.airtimeS
	if n.cfg.adaptiveBackoff && nd.adaptAirtimeS > 0 {
		quantum = nd.adaptAirtimeS
	}
	start, granted := nd.cont.Acquire(func(tS float64) bool {
		return n.med.BusyAt(nd.idx, tS)
	}, readyS, quantum, n.cfg.accessDeadlineS)
	if !granted {
		n.mu.Unlock()
		return 0, &ChannelBusyError{BusyUntilS: start, DeadlineS: n.cfg.accessDeadlineS}
	}
	nd.pinS, peer.pinS = start, start
	n.stats.Granted++
	n.bumpFrontierLocked(nd.idx, start+mac.SenseIntervalS)
	n.mu.Unlock()

	// Claim a worker slot outside the lock so running exchanges can
	// commit meanwhile. A cancelled context abandons the granted
	// attempt before it goes on the air.
	select {
	case n.sem <- struct{}{}:
	case <-ctx.Done():
		n.mu.Lock()
		unpinLocked(nd, peer)
		n.mu.Unlock()
		return 0, ctx.Err()
	}
	n.mu.Lock()
	n.running++
	if n.running > n.stats.MaxConcurrent {
		n.stats.MaxConcurrent = n.running
	}
	n.mu.Unlock()
	return start, nil
}

// unpinLocked releases an attempt's prune pin on both endpoints.
// Callers hold n.mu.
func unpinLocked(nd, peer *Node) {
	nd.pinS, peer.pinS = math.Inf(1), math.Inf(1)
}

// commitAttempt registers a finished attempt with the envelope medium
// (actual on-air duration, the node's sensing model), unpins it and
// releases the worker slot.
func (n *Network) commitAttempt(nd, peer *Node, startS, durS float64) {
	n.mu.Lock()
	n.med.Transmit(nd.cont.Transmission(nd.idx, startS, durS, nd.seq))
	nd.seq++
	nd.adaptAirtimeS = durS
	n.stats.Committed++
	n.stats.AirtimeS += durS
	n.running--
	unpinLocked(nd, peer)
	n.mu.Unlock()
	if probe := n.cfg.exchangeProbe; probe != nil {
		// Outside n.mu (the probe must not block virtual-time
		// bookkeeping) but under traceMu: commits of non-interfering
		// exchanges can race, and probes are promised serial delivery.
		n.traceMu.Lock()
		//aqualint:callback-under-lock WithExchangeProbe documents the hook as serialized, quick, and never re-entering the network; traceMu is the leaf of the lock order and n.mu is already released here
		probe(ExchangeEvent{Tx: nd.id, Rx: peer.id, StartS: startS, AirtimeS: durS})
		n.traceMu.Unlock()
	}
	<-n.sem
}

// abortAttempt releases a granted attempt whose exchange never
// completed (protocol error mid-exchange): unpin, free the worker slot.
func (n *Network) abortAttempt(nd, peer *Node) {
	n.mu.Lock()
	n.running--
	unpinLocked(nd, peer)
	n.mu.Unlock()
	<-n.sem
}
