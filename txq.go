package aquago

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// This file is the transmit subsystem: per-node priority transmit
// queues drained by per-node transmit daemons, with completions
// surfaced on a delivery queue. It adopts the classic packet-radio
// producer/consumer architecture — producers append to a node's queue;
// a daemon owns the radio and contends for the channel. Every send
// goes through it: SendAsync and Enqueue return at once, while the
// blocking Send and each SendVia hop enqueue a TxNormal job and wait
// for its handle.
//
// The determinism story. Results are worker-count invariant as long
// as conflicting exchanges run in a deterministic order, and this
// file's dispatch gate is the one place that order is decided:
//
//	a queued job may dispatch only when no live job that could
//	interfere with it — inflight anywhere, or queued with a smaller
//	(priority, enqueue-sequence) key — exists.
//
// Interference is the scheduler's predicate (Network.interferes over
// the two jobs' node pairs). Two consequences:
//
//   - conflicting jobs execute strictly one at a time, in enqueue
//     order (priority first), so their MAC grants and retries register
//     in that order regardless of worker count or goroutine timing;
//   - non-conflicting jobs dispatch freely and run concurrently, and
//     since they share no node and hear nothing of each other they
//     cannot affect each other's results.
//
// A job holds the gate for its whole life, every MAC attempt
// included. The gate reads current geometry at each decision, so a
// position epoch re-gates queued jobs, never inflight ones.
//
// Completion processing is atomic under the queue lock: the handle
// resolves, the delivery is recorded, and any continuation (a
// bulk relay forwarding the packet to the next hop) enqueues
// BEFORE any newly unblocked job can dispatch. The contract: results
// are deterministic and worker-count invariant whenever the enqueue
// pattern itself is deterministic — jobs enqueued from one goroutine
// in program order, or from completion continuations (the bulk
// relay), or both. Racing enqueuers from independent goroutines get
// well-defined FIFO-within-priority semantics per node, but their
// interleaving is theirs to determine.
//
// Virtual time stays causal without any queue-level time ordering:
// every dispatched attempt still passes the scheduler's scoped
// frontier clamp (sched.go), so a job dispatched "late" simply
// contends from its node's current horizon.

// TxPriority orders jobs within one node's transmit queue: a lower
// value dispatches first, and jobs of equal priority dispatch FIFO in
// enqueue order. Across nodes, priority also orders conflicting jobs
// (a high-priority job on one node precedes a conflicting normal one
// enqueued earlier on another).
type TxPriority int

const (
	// TxHigh is for control-plane traffic that should jump queued
	// payloads (an SOS message in the paper's terms).
	TxHigh TxPriority = iota
	// TxNormal is the default conversational priority (SendAsync).
	TxNormal
	// TxBulk is background transfer priority; the bulk
	// relay schedules its packets here so conversational sends
	// overtake a long transfer at every hop.
	TxBulk

	numTxPriorities
)

// String names the priority for logs.
func (p TxPriority) String() string {
	switch p {
	case TxHigh:
		return "high"
	case TxNormal:
		return "normal"
	case TxBulk:
		return "bulk"
	}
	return fmt.Sprintf("TxPriority(%d)", int(p))
}

// TxJob describes one queued transmission for Node.Enqueue. Exactly
// one of Msgs (one or two codebook messages, like Node.Send) or Raw
// (an arbitrary 16-bit payload) must be set.
type TxJob struct {
	// Dst is the destination device.
	Dst DeviceID
	// Msgs holds one or two codebook message IDs.
	Msgs []uint8
	// Raw, when non-nil, substitutes an arbitrary 2-byte payload.
	Raw *[2]byte
	// Priority is the queue priority (zero value TxHigh; SendAsync
	// uses TxNormal).
	Priority TxPriority
	// NotBeforeS floors the transmission's ready time on the virtual
	// timeline without advancing the node's clock — "this message
	// arrives at t". Zero means ready at the node's own clock.
	NotBeforeS float64
	// OnDone, when non-nil, is called with the job's delivery exactly
	// once, from the network's delivery pump (never concurrently with
	// other deliveries, in completion order). It may call back into
	// the network (enqueue follow-ups), unlike a Trace.
	OnDone func(TxDelivery)
}

// TxDelivery is one completed queued transmission, surfaced on the
// Deliveries channel and per-job OnDone callbacks.
type TxDelivery struct {
	// TxID is the completed job's handle ID (TxHandle.TxID) — the
	// same value stamped on the exchange's StageEvents.
	TxID uint64
	// From and To are the job's endpoints.
	From, To DeviceID
	// Priority is the queue priority the job ran at.
	Priority TxPriority
	// Result is the protocol send result (zero when the job never
	// reached the radio — cancelled while queued, node left).
	Result SendResult
	// EndS is the virtual time the final on-air attempt left the air
	// (zero when the job never transmitted).
	EndS float64
	// Err is the job's error, wrapping the public taxonomy
	// (ErrTxCancelled, ErrNodeLeft, ErrNoACK, ErrChannelBusy, ...);
	// nil on acknowledged delivery.
	Err error
}

// TxHandle tracks one queued transmission. Obtain handles from
// Node.SendAsync or Node.Enqueue; wait on Done/Wait, or consume the
// network-wide Deliveries queue instead.
type TxHandle struct {
	net *Network
	job *txJob

	// done closes when the job completes (delivered, failed,
	// cancelled, or drained by Leave). res/endS/err are written
	// before done closes and must only be read after it.
	done chan struct{}
	res  SendResult
	endS float64
	err  error
}

// TxID returns the handle's network-unique ID, assigned at enqueue
// starting at 1 and stamped on the job's StageEvents. Conflicting
// queued jobs dispatch in (priority, TxID) order.
func (h *TxHandle) TxID() uint64 { return h.job.seq }

// Done returns a channel closed when the job completes.
func (h *TxHandle) Done() <-chan struct{} { return h.done }

// Result returns the completed job's send result and error. Before
// completion it returns a zero SendResult and a nil error, which is
// not distinguishable from a successful empty result — only call it
// after Done is closed (Wait does both).
func (h *TxHandle) Result() (SendResult, error) {
	select {
	case <-h.done:
		return h.res, h.err
	default:
		return SendResult{}, nil
	}
}

// EndS returns the virtual time the job's final on-air attempt left
// the air (zero before completion or when it never transmitted).
func (h *TxHandle) EndS() float64 {
	select {
	case <-h.done:
		return h.endS
	default:
		return 0
	}
}

// Wait blocks until the job completes (returning its result and
// error) or ctx expires (returning ctx's error; the job itself keeps
// running — Cancel it to stop it).
func (h *TxHandle) Wait(ctx context.Context) (SendResult, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return SendResult{}, ctx.Err()
	}
}

// Cancel withdraws the job: still-queued jobs complete immediately
// with ErrTxCancelled (they never touch the radio); an inflight job
// has its context cancelled, aborting between MAC attempts, and its
// error wraps ErrTxCancelled. Cancelling a completed job is a no-op.
func (h *TxHandle) Cancel() {
	n := h.net
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	switch h.job.state {
	case txQueued:
		n.txCancelQueuedLocked(h.job, fmt.Errorf("%w: cancelled while queued", ErrTxCancelled))
		n.txEvaluateLocked()
		n.txCheckIdleLocked()
	case txInflight:
		h.job.cancelled = true
		h.job.cancel()
	}
}

// txJobState tracks a job through the queue.
type txJobState int

const (
	txQueued txJobState = iota
	txInflight
	txDone
)

// txJob is the internal form of one queued transmission.
type txJob struct {
	h      *TxHandle
	nd     *Node
	dst    *Node
	pri    TxPriority
	seq    uint64 // global enqueue sequence = handle TxID
	notB   float64
	raw    *[2]byte
	first  uint8
	second uint8
	rc     relayCtx

	ctx       context.Context
	cancel    context.CancelFunc
	cancelled bool // Cancel() reached it inflight
	left      bool // Leave() reached it inflight

	onDone func(TxDelivery)
	// held marks a job the gate has held back behind a conflicting
	// live job (counted once in SchedulerStats.ConflictEdges).
	held bool
	// after, when non-nil, runs under tx.mu as part of completion
	// processing — atomically before any newly unblocked job can
	// dispatch. The bulk relay forwards packets through it.
	after func(TxDelivery)

	state txJobState
}

// nodeTxq is one node's transmit queue: one FIFO per priority plus
// the daemon handoff slot.
type nodeTxq struct {
	q [numTxPriorities][]*txJob
	// n is the total queued job count across priorities.
	n int
	// daemonLive marks a running transmit daemon for this node; next
	// is its handoff slot (capacity 1 — a node can never have two
	// dispatchable jobs, since its second job conflicts with the
	// first by the shared node).
	daemonLive bool
	next       chan *txJob
}

func newNodeTxq() *nodeTxq { return &nodeTxq{next: make(chan *txJob, 1)} }

// head returns the node's next job in (priority, seq) order.
func (nq *nodeTxq) head() *txJob {
	for p := range nq.q {
		if len(nq.q[p]) > 0 {
			return nq.q[p][0]
		}
	}
	return nil
}

// remove drops a queued job (the head pop and mid-queue cancellation
// share it).
func (nq *nodeTxq) remove(j *txJob) {
	q := nq.q[j.pri]
	for i, x := range q {
		if x == j {
			nq.q[j.pri] = append(q[:i], q[i+1:]...)
			nq.n--
			return
		}
	}
}

// txDone pairs a delivery with its job callback for the pump.
type txDelivered struct {
	d  TxDelivery
	cb func(TxDelivery)
}

// txState is the network-wide async transmit state. Its mutex is
// taken BEFORE Network.mu when both are needed, never after.
type txState struct {
	mu sync.Mutex
	// seq is the last assigned TxID.
	seq uint64
	// nodes is the set of nodes with queued work.
	nodes map[*Node]struct{}
	// queued counts jobs across all node queues; inflight lists jobs
	// between dispatch and completion.
	queued   int
	inflight []*txJob
	// backlog holds completed deliveries awaiting the pump; pumpLive
	// marks the pump goroutine running.
	backlog  []txDelivered
	pumpLive bool
	// deliverCh is the Deliveries channel, created on first use.
	deliverCh chan TxDelivery
	// waiters are Flush callers parked until the queue drains.
	waiters []chan struct{}
}

// SendAsync enqueues one or two codebook messages to dst at TxNormal
// priority and returns immediately with a handle: the queued-work
// form of Node.Send. The node's transmit daemon dispatches the job
// when the conflict gate clears, runs the full carrier-sense exchange
// and resolves the handle; the completion also lands on the
// network's Deliveries queue. Errors at enqueue time: ErrBadMessage,
// ErrUnknownDevice, ErrNodeLeft, ErrQueueFull.
func (nd *Node) SendAsync(ctx context.Context, dst DeviceID, msgs ...uint8) (*TxHandle, error) {
	return nd.Enqueue(ctx, TxJob{Dst: dst, Msgs: msgs, Priority: TxNormal})
}

// Enqueue appends a transmit job to the node's priority queue and
// returns immediately with its handle — never blocking: a queue at
// capacity rejects with ErrQueueFull. ctx governs the job's whole
// life, queued time included. Jobs of one node dispatch FIFO within
// each priority; see the package's dispatch-determinism contract in
// this file's header.
func (nd *Node) Enqueue(ctx context.Context, job TxJob) (*TxHandle, error) {
	if job.Priority < 0 || job.Priority >= numTxPriorities {
		return nil, fmt.Errorf("%w: unknown transmit priority %d", ErrBadMessage, int(job.Priority))
	}
	return nd.enqueue(ctx, job, relayCtx{})
}

// enqueue is the one enqueue-and-evaluate path behind Enqueue, Send
// and SendVia's hops: pack the payload, check both ends, queue the job
// with its hop context rc, and run the dispatch gate.
func (nd *Node) enqueue(ctx context.Context, job TxJob, rc relayCtx) (*TxHandle, error) {
	var raw *[2]byte
	first, second := uint8(0), uint8(NoMessage)
	switch {
	case job.Raw != nil:
		if len(job.Msgs) != 0 {
			return nil, fmt.Errorf("%w: a job carries Msgs or Raw, not both", ErrBadMessage)
		}
		r := *job.Raw
		raw = &r
	case len(job.Msgs) < 1 || len(job.Msgs) > 2:
		return nil, fmt.Errorf("%w: send carries 1 or 2 messages, got %d", ErrBadMessage, len(job.Msgs))
	default:
		first = job.Msgs[0]
		if len(job.Msgs) == 2 {
			second = job.Msgs[1]
		}
	}
	n := nd.net
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	n.mu.Lock()
	if nd.departed {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: source %d", ErrNodeLeft, nd.id)
	}
	peer, err := n.peerLocked(nd, job.Dst)
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	h, err := n.txEnqueueLocked(nd, peer, job.Priority, job.NotBeforeS, raw, first, second, rc, ctx, job.OnDone, nil)
	if err != nil {
		return nil, err
	}
	n.txEvaluateLocked()
	return h, nil
}

// txEnqueueLocked builds and queues a job (tx.mu held); a nil ctx
// means context.Background(). It does NOT run the dispatch gate —
// callers evaluate once after a batch.
func (n *Network) txEnqueueLocked(nd, dst *Node, pri TxPriority, notBeforeS float64, raw *[2]byte, first, second uint8, rc relayCtx, ctx context.Context, onDone, after func(TxDelivery)) (*TxHandle, error) {
	if nd.txq.n >= n.cfg.txQueueCap {
		return nil, fmt.Errorf("%w: node %d at capacity %d", ErrQueueFull, nd.id, n.cfg.txQueueCap)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n.tx.seq++
	jctx, cancel := context.WithCancel(ctx)
	j := &txJob{
		nd: nd, dst: dst, pri: pri, seq: n.tx.seq,
		notB: notBeforeS, raw: raw, first: first, second: second,
		rc: rc, ctx: jctx, cancel: cancel,
		onDone: onDone, after: after,
	}
	j.rc.txID = j.seq
	j.h = &TxHandle{net: n, job: j, done: make(chan struct{})}
	nd.txq.q[pri] = append(nd.txq.q[pri], j)
	nd.txq.n++
	n.tx.queued++
	if n.tx.nodes == nil {
		n.tx.nodes = make(map[*Node]struct{})
	}
	n.tx.nodes[nd] = struct{}{}
	return j.h, nil
}

// txQueuedNodesSortedLocked materializes the queued-node set in
// ascending device-ID order (tx.mu held). Every dispatch-gate scan
// iterates this slice, never tx.nodes directly: map order is
// randomized per run, and the gate's contract is that its behavior is
// a deterministic function of queue state.
func (n *Network) txQueuedNodesSortedLocked() []*Node {
	nodes := make([]*Node, 0, len(n.tx.nodes))
	for nd := range n.tx.nodes {
		nodes = append(nodes, nd)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	return nodes
}

// txConflict reports whether two jobs' exchanges could interact —
// the scheduler's own interference predicate over the jobs' node
// pairs. Callers hold n.mu.
func (n *Network) txConflict(a, b *txJob) bool {
	return n.interferes(a.nd.idx, a.dst.idx, b.nd.idx, b.dst.idx)
}

// txKeyLess orders jobs by the dispatch key (priority, enqueue seq).
func txKeyLess(a, b *txJob) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// txAdmitLocked is the dispatch gate's decision (tx.mu held): every
// node head with no live conflicting predecessor — inflight, or
// queued anywhere with a smaller key — is popped, marked inflight and
// returned; a head held back is counted once in
// SchedulerStats.ConflictEdges. Heads admitted in one pass are
// mutually non-conflicting by the same rule, so the set admitted is
// pass-order independent — but the pass order still decides the
// sequence admitted jobs reach their daemons' handoff slots, and a
// determinism invariant that rests on "cannot matter" is
// unverifiable. The node set is therefore materialized sorted by
// device ID, making the scan a function of the network rather than of
// Go's randomized map layout.
func (n *Network) txAdmitLocked() []*txJob {
	if n.tx.queued == 0 {
		return nil
	}
	// The interference predicate reads node geometry; n.mu guards the
	// order table (tx.mu before mu is the global lock order).
	n.mu.Lock()
	nodes := n.txQueuedNodesSortedLocked()
	var admit []*txJob
	for _, nd := range nodes {
		j := nd.txq.head()
		if j == nil {
			continue
		}
		blocked := false
		for _, k := range n.tx.inflight {
			if n.txConflict(j, k) {
				blocked = true
				break
			}
		}
		if !blocked {
		scan:
			for _, other := range nodes {
				if other == nd {
					continue
				}
				for p := range other.txq.q {
					for _, b := range other.txq.q[p] {
						if txKeyLess(b, j) && n.txConflict(j, b) {
							blocked = true
							break scan
						}
					}
				}
			}
		}
		switch {
		case !blocked:
			admit = append(admit, j)
		case !j.held:
			j.held = true
			n.stats.ConflictEdges++
		}
	}
	n.mu.Unlock()
	for _, j := range admit {
		nq := j.nd.txq
		nq.remove(j)
		if nq.n == 0 {
			delete(n.tx.nodes, j.nd)
		}
		n.tx.queued--
		j.state = txInflight
		n.tx.inflight = append(n.tx.inflight, j)
	}
	return admit
}

// txEvaluateLocked runs the dispatch gate (tx.mu held) and hands each
// admitted job to its node's daemon.
func (n *Network) txEvaluateLocked() {
	for _, j := range n.txAdmitLocked() {
		nq := j.nd.txq
		if !nq.daemonLive {
			nq.daemonLive = true
			go n.txDaemon(j.nd)
		}
		//aqualint:chansend-ok next has capacity 1 and a node never has two dispatchable jobs (its second conflicts with its first via the shared node), so this send cannot block
		nq.next <- j
	}
}

// txDaemon is one node's transmit daemon: it owns the node's radio
// for queued work, draining dispatched jobs until the handoff slot is
// empty, then exits (the gate respawns it on demand, so an idle
// network holds no goroutines).
func (n *Network) txDaemon(nd *Node) {
	nq := nd.txq
	for {
		var j *txJob
		select {
		case j = <-nq.next:
		default:
			n.tx.mu.Lock()
			if len(nq.next) == 0 {
				nq.daemonLive = false
				n.tx.mu.Unlock()
				return
			}
			n.tx.mu.Unlock()
			continue
		}
		res, endS, err := nd.sendWith(j)
		n.txComplete(j, res, endS, err)
	}
}

// txComplete processes one finished job atomically under tx.mu:
// resolve the handle, run the continuation (a bulk relay's
// forward enqueue lands here, before any unblocked job can dispatch),
// record the delivery, and re-run the dispatch gate.
func (n *Network) txComplete(j *txJob, res SendResult, endS float64, err error) {
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	n.txRetireLocked(j, res, endS, err)
	n.txEvaluateLocked()
	n.txCheckIdleLocked()
}

// txRetireLocked takes a finished job off the inflight list and
// finishes it, mapping a context error to ErrNodeLeft (Leave) or
// ErrTxCancelled (tx.mu held). Callers own gate re-evaluation.
func (n *Network) txRetireLocked(j *txJob, res SendResult, endS float64, err error) {
	for i, k := range n.tx.inflight {
		if k == j {
			n.tx.inflight = append(n.tx.inflight[:i], n.tx.inflight[i+1:]...)
			break
		}
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		if j.left {
			err = fmt.Errorf("%w: %w", ErrNodeLeft, err)
		} else {
			err = fmt.Errorf("%w: %w", ErrTxCancelled, err)
		}
	}
	n.txFinishLocked(j, res, endS, err)
}

// txFinishLocked resolves a job's handle, runs its continuation and
// queues its delivery (tx.mu held). Callers own gate re-evaluation.
func (n *Network) txFinishLocked(j *txJob, res SendResult, endS float64, err error) {
	j.state = txDone
	j.h.res, j.h.endS, j.h.err = res, endS, err
	close(j.h.done)
	d := TxDelivery{
		TxID: j.seq, From: j.nd.id, To: j.dst.id, Priority: j.pri,
		Result: res, EndS: endS, Err: err,
	}
	if j.after != nil {
		//aqualint:callback-under-lock after is internal (never user-supplied): the bulk relay's continuation, documented on txJob to run under tx.mu so forwards enqueue before any unblocked job dispatches; it calls only *Locked helpers
		j.after(d)
	}
	n.txDeliverLocked(d, j.onDone)
	j.cancel()
}

// txCancelQueuedLocked completes a still-queued job with err without
// it ever touching the radio (tx.mu held).
func (n *Network) txCancelQueuedLocked(j *txJob, err error) {
	nq := j.nd.txq
	nq.remove(j)
	if nq.n == 0 {
		delete(n.tx.nodes, j.nd)
	}
	n.tx.queued--
	n.txFinishLocked(j, SendResult{}, 0, err)
}

// txDeliverLocked appends a completion for the delivery pump. With no
// Deliveries channel and no callback the delivery vanishes (handles
// still resolve).
func (n *Network) txDeliverLocked(d TxDelivery, cb func(TxDelivery)) {
	if cb == nil && n.tx.deliverCh == nil {
		return
	}
	n.tx.backlog = append(n.tx.backlog, txDelivered{d, cb})
	if !n.tx.pumpLive {
		n.tx.pumpLive = true
		go n.txPump()
	}
}

// txPump drains the delivery backlog in completion order, outside the
// queue lock: callbacks may re-enter the network, and a full
// Deliveries channel stalls only this pump, never a transmit daemon.
func (n *Network) txPump() {
	for {
		n.tx.mu.Lock()
		if len(n.tx.backlog) == 0 {
			n.tx.pumpLive = false
			n.tx.mu.Unlock()
			return
		}
		e := n.tx.backlog[0]
		n.tx.backlog = n.tx.backlog[1:]
		ch := n.tx.deliverCh
		n.tx.mu.Unlock()
		if e.cb != nil {
			e.cb(e.d)
		}
		if ch != nil {
			ch <- e.d
		}
	}
}

// txCheckIdleLocked releases Flush waiters once no queued or inflight
// work remains.
func (n *Network) txCheckIdleLocked() {
	if n.tx.queued != 0 || len(n.tx.inflight) != 0 {
		return
	}
	for _, ch := range n.tx.waiters {
		close(ch)
	}
	n.tx.waiters = nil
}

// Deliveries returns the network-wide delivery queue: every job's
// completion — blocking Send calls and SendVia hops included, since
// they are queued jobs too — in completion order, including
// cancellations and Leave drains. The channel is created on first
// call (sized by WithDeliveryBuffer) and only carries completions
// processed after that, so call it before enqueueing. Consume it promptly — a full
// channel stalls delivery (and OnDone callbacks behind it), though
// never the transmit daemons themselves.
func (n *Network) Deliveries() <-chan TxDelivery {
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	if n.tx.deliverCh == nil {
		n.tx.deliverCh = make(chan TxDelivery, n.cfg.deliveryBuffer)
	}
	return n.tx.deliverCh
}

// Flush blocks until the async transmit subsystem is idle — every
// queued and inflight job completed — or ctx expires. Deliveries may
// still be draining through the pump when Flush returns; handles are
// all resolved.
func (n *Network) Flush(ctx context.Context) error {
	n.tx.mu.Lock()
	if n.tx.queued == 0 && len(n.tx.inflight) == 0 {
		n.tx.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	n.tx.waiters = append(n.tx.waiters, ch)
	n.tx.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Leave departs the node from the network's traffic plane: its queued
// jobs drain immediately with ErrNodeLeft, its inflight job (if any) —
// a blocking Send's or SendVia hop's included — is aborted with
// ErrNodeLeft, and every later send from it — or addressed to it —
// fails with ErrNodeLeft. The node also leaves the routing plane:
// cached routes relaying through it are invalidated and new routes
// never pass through a departed node. The node's geometry stays:
// departed radios do not change the audibility graph other nodes were
// built on (a diver surfacing does not move the water). Leave is
// idempotent.
func (nd *Node) Leave() {
	n := nd.net
	n.tx.mu.Lock()
	defer n.tx.mu.Unlock()
	n.leaveLocked(nd)
	n.txEvaluateLocked()
	n.txCheckIdleLocked()
}

// leaveLocked marks nd departed, drains its queue and aborts its
// inflight job (tx.mu held). Callers re-run the dispatch gate.
func (n *Network) leaveLocked(nd *Node) {
	n.mu.Lock()
	if nd.departed {
		n.mu.Unlock()
		return
	}
	nd.departed = true
	n.noteLeaveLocked(nd.idx)
	n.mu.Unlock()
	for p := range nd.txq.q {
		for len(nd.txq.q[p]) > 0 {
			n.txCancelQueuedLocked(nd.txq.q[p][0], fmt.Errorf("%w: node %d", ErrNodeLeft, nd.id))
		}
	}
	for _, j := range n.tx.inflight {
		if j.nd == nd {
			j.left = true
			j.cancel()
		}
	}
}
