package aquago

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestTxQueuedNodesSortedLocked pins the dispatch gate's scan order to
// ascending device IDs. The gate formerly ranged over the tx.nodes map
// directly, so its scan order rode Go's per-run map randomization;
// with 64 nodes an unsorted materialization comes back ascending with
// probability 1/64!, so this test fails essentially always without
// the sort in txQueuedNodesSortedLocked.
func TestTxQueuedNodesSortedLocked(t *testing.T) {
	const nNodes = 64
	n := &Network{}
	n.tx.nodes = make(map[*Node]struct{}, nNodes)
	// Insert in descending ID order so even an insertion-ordered map
	// would not be accidentally ascending.
	for id := nNodes - 1; id >= 0; id-- {
		n.tx.nodes[&Node{id: DeviceID(id)}] = struct{}{}
	}
	got := n.txQueuedNodesSortedLocked()
	if len(got) != nNodes {
		t.Fatalf("materialized %d nodes, want %d", len(got), nNodes)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].id < got[j].id }) {
		ids := make([]DeviceID, len(got))
		for i, nd := range got {
			ids[i] = nd.id
		}
		t.Fatalf("dispatch-gate node scan is not in device-ID order: %v", ids)
	}
}

// TestDispatchGateMatchesBrute drives the dispatch gate's decision
// (txAdmitLocked) through random enqueue, complete and leave steps on
// random scatters, with no exchange behind the jobs, and checks the
// gate against a brute-force recomputation over the geometry after
// every step.
func TestDispatchGateMatchesBrute(t *testing.T) {
	for _, cs := range []float64{0, 30} {
		for seed := int64(1); seed <= 3; seed++ {
			checkDispatchGate(t, cs, seed, 0)
		}
	}
}

// TestDispatchGateMatchesBruteUnderMotion adds position epochs between
// the steps: queued jobs gate against current geometry, and jobs
// already inflight are never re-gated.
func TestDispatchGateMatchesBruteUnderMotion(t *testing.T) {
	for _, cs := range []float64{12, 30} {
		for seed := int64(1); seed <= 3; seed++ {
			checkDispatchGate(t, cs, seed, 10)
		}
	}
}

// checkDispatchGate runs one random gate schedule on a 24-node
// scatter; stepM > 0 interleaves position epochs of up to stepM
// meters. After each step the gate runs, then:
//
//   - no two inflight jobs share a node (one radio per device, whatever
//     the geometry);
//   - every job the gate just admitted interferes, at current
//     geometry, with no other inflight job and no queued job with a
//     smaller (priority, seq) key;
//   - every queued head left behind has such a conflicting live
//     predecessor, and each head the gate held is counted once in
//     ConflictEdges.
func checkDispatchGate(t *testing.T, cs float64, seed int64, stepM float64) {
	t.Helper()
	net := scatterNetwork(t, 24, cs, seed)
	rng := rand.New(rand.NewSource(seed*104729 + int64(stepM)))
	net.tx.mu.Lock()
	defer net.tx.mu.Unlock()
	held := make(map[*txJob]bool)
	conflict := func(a, b *txJob) bool {
		return bruteInterferes(net, a.nd.idx, a.dst.idx, b.nd.idx, b.dst.idx)
	}
	queuedJobs := func() []*txJob {
		var q []*txJob
		for _, nd := range net.order {
			for p := range nd.txq.q {
				q = append(q, nd.txq.q[p]...)
			}
		}
		return q
	}
	check := func(step string) {
		admitted := net.txAdmitLocked()
		net.mu.Lock()
		defer net.mu.Unlock()
		inflight := net.tx.inflight
		for i, a := range inflight {
			for _, b := range inflight[i+1:] {
				if a.nd == b.nd || a.nd == b.dst || a.dst == b.nd || a.dst == b.dst {
					t.Fatalf("cs=%g seed=%d %s: inflight jobs %d and %d share a node", cs, seed, step, a.seq, b.seq)
				}
			}
		}
		queued := queuedJobs()
		dispatched := make(map[*Node]bool)
		for _, j := range admitted {
			dispatched[j.nd] = true
			for _, k := range inflight {
				if k != j && conflict(j, k) {
					t.Fatalf("cs=%g seed=%d %s: admitted job %d interferes with inflight job %d", cs, seed, step, j.seq, k.seq)
				}
			}
			for _, k := range queued {
				if txKeyLess(k, j) && conflict(j, k) {
					t.Fatalf("cs=%g seed=%d %s: admitted job %d overtook conflicting queued job %d", cs, seed, step, j.seq, k.seq)
				}
			}
		}
		for _, nd := range net.order {
			j := nd.txq.head()
			if j == nil {
				continue
			}
			blocked := false
			for _, k := range inflight {
				blocked = blocked || conflict(j, k)
			}
			for _, k := range queued {
				blocked = blocked || (txKeyLess(k, j) && conflict(j, k))
			}
			if !blocked {
				t.Fatalf("cs=%g seed=%d %s: head %d held with no conflicting live predecessor", cs, seed, step, j.seq)
			}
			switch {
			case j.held:
				held[j] = true
			case !dispatched[nd]:
				// Only a head exposed by its node's own job just
				// dispatching has not met the gate yet.
				t.Fatalf("cs=%g seed=%d %s: held head %d not counted", cs, seed, step, j.seq)
			}
		}
		if net.stats.ConflictEdges != len(held) {
			t.Fatalf("cs=%g seed=%d %s: ConflictEdges=%d, %d distinct heads held", cs, seed, step, net.stats.ConflictEdges, len(held))
		}
	}
	live := func() []*Node {
		var nodes []*Node
		for _, nd := range net.order {
			if !nd.departed {
				nodes = append(nodes, nd)
			}
		}
		return nodes
	}
	retire := func(i int) {
		net.txRetireLocked(net.tx.inflight[i], SendResult{}, 0, nil)
	}
	for step := 0; step < 120; step++ {
		switch r := rng.Intn(12); {
		case r < 3 && len(net.tx.inflight) > 0:
			retire(rng.Intn(len(net.tx.inflight)))
		case r < 5 && stepM > 0:
			nodes := live()
			nd := nodes[rng.Intn(len(nodes))]
			p := nd.Position()
			p.X += (rng.Float64()*2 - 1) * stepM
			p.Y += (rng.Float64()*2 - 1) * stepM
			if err := nd.SetPosition(p); err != nil && !errors.Is(err, ErrAddressClash) {
				t.Fatalf("cs=%g seed=%d step %d: SetPosition: %v", cs, seed, step, err)
			}
		case r == 5 && rng.Intn(4) == 0:
			nodes := live()
			net.leaveLocked(nodes[rng.Intn(len(nodes))])
		default:
			nodes := live()
			tx := rng.Intn(len(nodes))
			rx := rng.Intn(len(nodes) - 1)
			if rx >= tx {
				rx++
			}
			pri := TxPriority(rng.Intn(int(numTxPriorities)))
			if _, err := net.txEnqueueLocked(nodes[tx], nodes[rx], pri, 0, nil, 0, NoMessage, relayCtx{}, nil, nil, nil); err != nil {
				t.Fatalf("cs=%g seed=%d step %d: enqueue: %v", cs, seed, step, err)
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
	for len(net.tx.inflight) > 0 {
		retire(0)
		check("drain")
	}
	if net.tx.queued != 0 {
		t.Fatalf("cs=%g seed=%d: %d jobs stranded in the queues", cs, seed, net.tx.queued)
	}
}
