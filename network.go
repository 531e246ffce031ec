package aquago

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"aquago/internal/mac"
	"aquago/internal/modem"
	"aquago/internal/phy"
	"aquago/internal/sim"
)

// joinStaggerS bounds the default seed-derived initial clock stagger
// drawn at Join (see WithNodeClock).
const joinStaggerS = 1.5

// MaxNetworkDevices bounds the device IDs a Network accepts (Join).
// The on-air address space is still the modem's 60 ID-tone
// subcarriers (phy.MaxDeviceID) — the paper's hard limit — but a
// network reuses it spatially: a node's tone is its ID modulo 60, and
// Join only requires the tone to be unique within carrier-sense
// audibility, the distance inside which two exchanges could ever
// confuse addresses. Distant pods therefore recycle tones the way
// cellular systems recycle frequencies, and a bounded-audibility
// deployment scales to thousands of devices; with an unlimited
// carrier-sense range every node hears every other, so the effective
// cap remains 60, as in the paper's pool.
const MaxNetworkDevices = 1 << 16

// Position locates a node in meters; Z is depth below the surface.
type Position = sim.Position

// ContentionConfig parameterizes a batch contention simulation
// (SimulateContention); zero values take the paper defaults (120
// packets per transmitter, 0.6 s packets, 3.2 s mean gap, the
// energy-only quiet window).
type ContentionConfig = mac.Config

// ContentionResult reports a batch contention simulation: per-node
// (collided, sent) counts, the overall collision fraction, and the
// simulated duration.
type ContentionResult = mac.Result

// ContentionMode selects how concurrent Node.Send exchanges interact
// on the shared medium (WithContentionMode).
type ContentionMode int

const (
	// EnvelopeContention is the default fast path: overlapping
	// transmissions are *counted* as collisions by the envelope medium
	// (carrier sense, CollisionStats — the paper's Fig 19 accounting)
	// but each exchange still decodes over its own clean pair channel.
	// Cheap, and byte-identical to the pre-scheduler behavior.
	EnvelopeContention ContentionMode = iota
	// WaveformContention routes every exchange through sample-level
	// superposition (sim.WaveBank): each protocol stage's waveform is
	// registered on the air, and every receive window is the sum of
	// the direct signal and all audible concurrent transmissions,
	// convolved through their pairwise channels. Overlaps corrupt the
	// actual samples, so collisions surface as decode failures
	// (ErrNoACK with Result showing the lost stage) instead of only
	// counter increments. Several times costlier per exchange.
	WaveformContention
)

// ExchangeEvent describes one committed transmission attempt: who
// transmitted to whom, when it went on the air, and its actual on-air
// duration (known only after the exchange, once the feedback band —
// and with it the data-section length — is fixed). Aggregate airtime
// is also available through SchedulerStats.
type ExchangeEvent struct {
	// Tx and Rx are the attempt's endpoints.
	Tx, Rx DeviceID
	// StartS is the MAC-granted transmit time (virtual seconds).
	StartS float64
	// AirtimeS is the attempt's actual on-air duration.
	AirtimeS float64
}

// SIRSample is the signal-to-interference accounting of one
// waveform-mode receive window: the direct signal's power at the
// receiver's ear versus the summed power of every audible concurrent
// transmission mixed into the same window (both after per-pair channel
// convolution and propagation, before ambient noise). Only emitted
// under WithContentionMode(WaveformContention).
type SIRSample struct {
	// Tx and Rx are the window's endpoints (Rx is listening).
	Tx, Rx DeviceID
	// AtS is the window start at the receiver (virtual seconds).
	AtS float64
	// SignalPower is the direct signal's mean-square power over the
	// window; InterferencePower is the summed interferers' (0 when the
	// window was clean).
	SignalPower, InterferencePower float64
}

// SIRdB returns the window's signal-to-interference ratio in dB
// (+Inf for a clean window).
func (s SIRSample) SIRdB() float64 {
	if s.InterferencePower <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(s.SignalPower/s.InterferencePower)
}

// NetworkOption customizes NewNetwork.
type NetworkOption func(*networkConfig)

type networkConfig struct {
	seed            int64
	csRangeM        float64
	carrierSense    bool
	preambleAware   bool
	accessDeadlineS float64
	retries         int
	trace           Trace
	mode            ContentionMode
	workers         int
	routing         RoutingPolicy
	exchangeProbe   func(ExchangeEvent)
	sirProbe        func(SIRSample)
	txQueueCap      int
	deliveryBuffer  int
	persist         float64
	adaptiveBackoff bool
	bulkRetries     int
	bulkRetriesSet  bool
}

// WithNetworkSeed fixes the random realization of every channel and
// every node's MAC backoff draws (default 1).
func WithNetworkSeed(seed int64) NetworkOption {
	return func(c *networkConfig) { c.seed = seed }
}

// WithCSRange bounds carrier-sense audibility to the given distance
// in meters (default 0 = unlimited; real deployments hear well past
// the 5-10 m node spacing).
func WithCSRange(meters float64) NetworkOption {
	return func(c *networkConfig) { c.csRangeM = meters }
}

// WithoutCarrierSense disables the MAC: nodes transmit as soon as
// they are ready (the paper's Fig 19 baseline).
func WithoutCarrierSense() NetworkOption {
	return func(c *networkConfig) { c.carrierSense = false }
}

// WithPreambleAwareSense upgrades carrier sense with preamble
// detection (§2.4's suggested improvement): an exchange's silent
// feedback window still reads as busy, eliminating the residual
// collisions of energy-only sensing.
func WithPreambleAwareSense() NetworkOption {
	return func(c *networkConfig) { c.preambleAware = true }
}

// WithAccessDeadline bounds how long (in virtual seconds) a Send may
// wait for the MAC to grant the channel before failing with
// ErrChannelBusy (default 300; <= 0 waits without bound).
func WithAccessDeadline(virtualSeconds float64) NetworkOption {
	return func(c *networkConfig) { c.accessDeadlineS = virtualSeconds }
}

// WithNetworkRetries sets every node's extra attempt budget after an
// unacknowledged transmission (default 2).
func WithNetworkRetries(n int) NetworkOption {
	return func(c *networkConfig) { c.retries = n }
}

// WithNetworkTrace installs a stage trace on every node that does not
// carry its own (WithNodeTrace wins per node).
func WithNetworkTrace(t Trace) NetworkOption {
	return func(c *networkConfig) { c.trace = t }
}

// WithContentionMode selects envelope (default) or waveform contention
// — see the ContentionMode constants for the trade-off.
func WithContentionMode(m ContentionMode) NetworkOption {
	return func(c *networkConfig) { c.mode = m }
}

// WithExchangeProbe installs fn, called once per committed
// transmission attempt with its endpoints, granted start time and
// actual on-air airtime. Calls are serialized (never concurrent with
// themselves or a network-wide Trace) but may arrive in any order
// across non-interfering exchanges; fn must return quickly and must
// not call back into the network. Load harnesses use it to turn
// attempt airtimes into latency and utilization without re-deriving
// protocol timing.
func WithExchangeProbe(fn func(ExchangeEvent)) NetworkOption {
	return func(c *networkConfig) { c.exchangeProbe = fn }
}

// WithSIRProbe installs fn, called for every waveform-mode receive
// window with its per-window signal and interference power (see
// SIRSample). No-op under EnvelopeContention, where windows are never
// mixed. The same serialization and no-reentrancy rules as
// WithExchangeProbe apply.
func WithSIRProbe(fn func(SIRSample)) NetworkOption {
	return func(c *networkConfig) { c.sirProbe = fn }
}

// DefaultTxQueueCap is the per-node transmit queue capacity when
// WithTxQueueCapacity is not given.
const DefaultTxQueueCap = 64

// WithTxQueueCapacity bounds every node's async transmit queue
// (SendAsync/Enqueue) to cap jobs across all priorities (default
// DefaultTxQueueCap). A full queue rejects new jobs with ErrQueueFull
// — enqueueing never blocks, so the caller owns the backpressure
// policy. cap must be at least 1 (NewNetwork errors otherwise).
func WithTxQueueCapacity(cap int) NetworkOption {
	return func(c *networkConfig) { c.txQueueCap = cap }
}

// WithDeliveryBuffer sizes the Deliveries channel (default
// DefaultTxQueueCap). Completions beyond the buffer stall the
// network's delivery pump — never the transmit daemons — until the
// consumer catches up. n must be at least 1 (NewNetwork errors
// otherwise).
func WithDeliveryBuffer(n int) NetworkOption {
	return func(c *networkConfig) { c.deliveryBuffer = n }
}

// WithPPersistence switches every node's MAC from the paper's
// multi-packet random backoff to p-persistent slotted access: a node
// waits for the channel to fall idle, then transmits with probability
// p at each slot boundary (one sense interval), deferring one slot
// otherwise. The paper's backoff grows by a whole packet duration on
// every busy poll — a heavy tax behind a busy relay chain, where
// p-persistence re-contends within a few slots of the channel
// clearing. p must be in (0, 1] (NewNetwork errors otherwise).
// Changing the MAC discipline changes every grant time, so results
// are not comparable point-for-point with the default MAC (they
// remain deterministic and worker-count invariant).
func WithPPersistence(p float64) NetworkOption {
	return func(c *networkConfig) { c.persist = p }
}

// DefaultBulkRetries is the bulk relay's per-packet-per-hop
// retransmission budget when WithBulkRetries is not given.
const DefaultBulkRetries = 2

// WithBulkRetries sets how many times the bulk relay layer
// (SendBulkVia and the pipelined variant) retransmits one packet's
// hop after a transient failure — a lost ACK or a busy channel —
// before the transfer dies with a *RelayError. Each retransmission
// re-enters the relay's transmit queue and the MAC with an
// exponentially backed virtual-clock floor scaled by the node's
// backoff quantum. 0 restores the old abort-on-first-loss behavior;
// n must not be negative (NewNetwork errors otherwise). Default
// DefaultBulkRetries.
func WithBulkRetries(n int) NetworkOption {
	return func(c *networkConfig) { c.bulkRetries, c.bulkRetriesSet = n, true }
}

// WithAdaptiveBackoff scales each node's MAC backoff quantum to its
// last committed attempt's actual on-air duration — the adapted
// band's airtime — instead of the worst-case full-band airtime. A
// node on a good channel then serves proportionally shorter backoffs
// (the carried ROADMAP item). The first attempt, with no adaptation
// history, still uses the conservative full-band quantum. Like
// WithPPersistence this changes grant times (deterministically) and
// so is off by default to keep existing results byte-identical.
func WithAdaptiveBackoff() NetworkOption {
	return func(c *networkConfig) { c.adaptiveBackoff = true }
}

// WithNetworkWorkers bounds how many exchanges may execute
// concurrently on the transmit daemons (default 0 = one per
// CPU core; 1 serializes every exchange). Only exchanges whose node
// pairs cannot interfere — disjoint nodes, all cross distances beyond
// the carrier-sense range — ever run in parallel, so the knob trades
// wall-clock speed for nothing: results are identical for any worker
// count.
func WithNetworkWorkers(workers int) NetworkOption {
	return func(c *networkConfig) { c.workers = workers }
}

// Network is a shared body of simulated water that contending devices
// inhabit (§2.4 of the paper evaluates up to 60; with a bounded
// carrier-sense range the 60-tone on-air address space is reused
// spatially and the network scales to thousands of nodes — see
// MaxNetworkDevices). It owns:
//
//   - an envelope-mode acoustic medium tracking what is on the air
//     where and when (carrier sense, collision accounting — Fig 19),
//   - a lazily built channel link for every directed node pair,
//     derived from node geometry,
//   - a uniform spatial grid over node positions (cell size = the
//     carrier-sense range) backing audibility adjacency, carrier-sense
//     frontiers and route expansion, and
//   - per-node protocol stacks on one shared virtual timeline.
//
// Nodes enter with Join; Node.Send runs the full adaptive protocol
// through the carrier-sense MAC. The two-endpoint SimulatedWater +
// Session API is the 2-node special case of this surface (a Session
// can run over Node.MediumTo's pair medium directly).
//
// All methods are safe for concurrent use. Virtual-time bookkeeping
// (MAC grants, envelope registration, frontiers) is serialized under
// one lock, but the exchanges themselves run as transmit-queue jobs
// (see txq.go and sched.go): jobs whose node pairs cannot interfere —
// disjoint nodes, every cross distance beyond the carrier-sense range
// — execute concurrently on a bounded worker pool, while interfering
// jobs dispatch one at a time in deterministic enqueue order.
type Network struct {
	env Environment
	cfg networkConfig

	mu    sync.Mutex
	med   *sim.Medium
	links *sim.Links
	// bank holds per-stage waveforms for sample-level superposition;
	// nil in envelope mode.
	bank  *sim.WaveBank
	nodes map[DeviceID]*Node
	order []*Node
	// grid is the uniform spatial index over node positions, cell size
	// = carrier-sense range (disabled when the range is unlimited —
	// then everyone is everyone's neighbor and brute force is exact).
	grid *sim.Grid
	// neighbors is the audibility adjacency, per node index, ascending
	// — maintained incrementally at Join from the grid. nil as a whole
	// when the carrier-sense range is unlimited (brute-force mode).
	neighbors [][]int
	// gridScratch is a reusable candidate buffer for grid queries
	// under mu.
	gridScratch []int
	// frontier is the scoped virtual commit frontier, per node index:
	// one sense interval past the latest committed transmission start
	// the node could have heard. Sends resolve in grant order, which
	// need not match virtual-time order; bumping an attempt's ready
	// time to its node's frontier keeps the simulation causal — a send
	// can never start in the already-simulated past, where carrier
	// sense could not have heard transmissions committed after it.
	// Nodes out of carrier-sense range keep independent timelines.
	frontier []float64
	// wcAirtimeS is the worst-case (narrowest-band) exchange airtime
	// across joined nodes — Prune's bound on future durations.
	wcAirtimeS float64
	// Routing caches (route.go): shortest paths (with their policy
	// cost) and ETX edge weights per node-index pair. Entries stay
	// valid until the geometry under them changes: a Join invalidates
	// only the routes the new node could have shortened
	// (noteJoinLocked), a position epoch drops the mover's ETX entries
	// and re-prices routes against its new position (noteMoveLocked),
	// and a Leave drops routes through the departed node
	// (noteLeaveLocked).
	routeCache map[[2]int]cachedRoute
	etxCache   map[[2]int]float64
	// routeScratch is the route searches' reusable label arrays, heap
	// and pricing worklist, reset per search (route.go).
	routeScratch routeScratch
	// Motion layer state (motion.go): geoEpoch counts applied position
	// epochs (0 = Join-time geometry, the static fast paths), and
	// motionClockS is the monotone virtual time tracks were last
	// evaluated at (AdvanceMotion).
	geoEpoch     uint64
	motionClockS float64

	// Per-attempt scheduler state (sched.go).
	sem     chan struct{}
	running int
	stats   SchedulerStats
	// sincePrune counts attempts admitted since the last log prune;
	// pruning amortizes its O(nodes) bound scan across a batch of
	// admissions (results are prune-schedule independent).
	sincePrune int

	// tx is the async transmit subsystem's shared state (txq.go):
	// per-node priority queues, the deterministic dispatch gate, the
	// transmit daemons and the delivery pump. It has its own lock;
	// the lock order is tx.mu before mu, never the reverse.
	tx txState

	// traceMu serializes the shared network-wide trace across
	// concurrently executing exchanges (see Trace).
	traceMu sync.Mutex
}

// NewNetwork creates an empty network in the given environment.
func NewNetwork(env Environment, opts ...NetworkOption) (*Network, error) {
	cfg := networkConfig{
		seed:            1,
		carrierSense:    true,
		accessDeadlineS: 300,
		retries:         2,
		txQueueCap:      DefaultTxQueueCap,
		deliveryBuffer:  DefaultTxQueueCap,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.mode != EnvelopeContention && cfg.mode != WaveformContention {
		return nil, fmt.Errorf("aquago: unknown contention mode %d", cfg.mode)
	}
	if cfg.routing != MinHop && cfg.routing != MinETX {
		return nil, fmt.Errorf("aquago: unknown routing policy %d", int(cfg.routing))
	}
	if cfg.txQueueCap < 1 {
		return nil, fmt.Errorf("aquago: transmit queue capacity %d must be at least 1", cfg.txQueueCap)
	}
	if cfg.deliveryBuffer < 1 {
		return nil, fmt.Errorf("aquago: delivery buffer %d must be at least 1", cfg.deliveryBuffer)
	}
	if cfg.persist < 0 || cfg.persist > 1 || math.IsNaN(cfg.persist) {
		return nil, fmt.Errorf("aquago: p-persistence %v outside (0, 1]", cfg.persist)
	}
	if !cfg.bulkRetriesSet {
		cfg.bulkRetries = DefaultBulkRetries
	}
	if cfg.bulkRetries < 0 {
		return nil, fmt.Errorf("aquago: bulk retry budget %d must not be negative", cfg.bulkRetries)
	}
	med := sim.New(env)
	med.CSRangeM = cfg.csRangeM
	sampleRate := modem.DefaultConfig().SampleRate
	n := &Network{
		env:   env,
		cfg:   cfg,
		med:   med,
		links: sim.NewLinks(med, sampleRate, cfg.seed, false),
		nodes: make(map[DeviceID]*Node),
		grid:  sim.NewGrid(cfg.csRangeM),
		sem:   make(chan struct{}, schedWorkers(cfg.workers)),
	}
	if cfg.csRangeM > 0 {
		n.neighbors = [][]int{}
	}
	if cfg.mode == WaveformContention {
		n.bank = sim.NewWaveBank(med, sampleRate, cfg.seed)
	}
	return n, nil
}

// schedWorkers resolves the worker knob: <= 0 means one slot per CPU
// core, never fewer than one.
func schedWorkers(w int) int {
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Environment returns the network's deployment site.
func (n *Network) Environment() Environment { return n.env }

// NumNodes returns how many devices have joined.
func (n *Network) NumNodes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.order)
}

// Join adds a device at the given position and returns its Node. IDs
// must be unique and in [0, MaxNetworkDevices); positions with Z
// outside the water column are clamped to it. The on-air address is
// the ID modulo 60 (the modem's ID-tone space), and Join additionally
// requires that tone to be unique among nodes within carrier-sense
// audibility of the new position (ErrAddressClash otherwise) — with
// an unlimited carrier-sense range that keeps the paper's 60-device
// cap, while a bounded range reuses tones spatially and scales to
// thousands of devices (see MaxNetworkDevices).
func (n *Network) Join(id DeviceID, pos Position, opts ...NodeOption) (*Node, error) {
	nc := nodeConfig{}
	for _, o := range opts {
		o(&nc)
	}
	m, err := modem.New(modem.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if id < 0 || int(id) >= MaxNetworkDevices {
		return nil, fmt.Errorf("%w: %d (IDs are [0, %d); the on-air tone is ID mod %d)",
			ErrBadDeviceID, id, MaxNetworkDevices, phy.MaxDeviceID)
	}
	tone := DeviceID(int(id) % phy.MaxDeviceID)
	if !tone.Valid(m.Config()) {
		return nil, fmt.Errorf("%w: %d", ErrBadDeviceID, id)
	}
	if nc.trackSet {
		if err := nc.track.validate(); err != nil {
			return nil, fmt.Errorf("joining %d: %w", id, err)
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateDevice, id)
	}
	// Audible candidates of the new position: the per-cell candidate
	// sets when the grid is live, every joined node under an unlimited
	// range. They double as the tone-clash check set and the new
	// node's adjacency row.
	var audible []int
	if n.grid.Enabled() {
		n.gridScratch = n.grid.AppendWithin(n.gridScratch[:0], pos, n.cfg.csRangeM)
		audible = n.gridScratch
	} else {
		for j := range n.order {
			audible = append(audible, j)
		}
	}
	for _, j := range audible {
		if other := n.order[j]; other.tone == tone {
			return nil, fmt.Errorf("%w: ID %d and ID %d share on-air tone %d within %s",
				ErrAddressClash, id, other.id, tone, audibleRangeLabel(n.cfg.csRangeM))
		}
	}
	var idx int
	addNode := func() {
		idx = n.med.AddNode(pos)
		n.links.SetEndpoint(idx, sim.Endpoint{Device: nc.device, Motion: nc.motion})
		if n.bank != nil {
			n.bank.SetEndpoint(idx, sim.Endpoint{Device: nc.device, Motion: nc.motion})
		}
	}
	if n.bank != nil {
		// Concurrent waveform mixes read medium geometry under the
		// bank's lock; joins mutate it under both locks.
		n.bank.Sync(addNode)
	} else {
		addNode()
	}
	n.grid.Add(idx, pos)
	if n.neighbors != nil {
		// Incremental adjacency: the new node's row is exactly the
		// audible candidate set (already ascending); existing rows gain
		// the new node by appending its index, which is the maximum so
		// far, keeping every row sorted.
		row := append([]int(nil), audible...)
		n.neighbors = append(n.neighbors, row)
		for _, j := range row {
			n.neighbors[j] = append(n.neighbors[j], idx)
		}
	}
	n.frontier = append(n.frontier, 0)

	nd := &Node{
		net:      n,
		id:       id,
		tone:     tone,
		idx:      idx,
		pos:      pos,
		trace:    nc.trace,
		track:    nc.track,
		hasTrack: nc.trackSet,
		pinS:     math.Inf(1),
	}
	if nc.clockSet {
		nd.clockS = nc.clockS
	} else {
		staggerRng := rand.New(rand.NewSource(n.cfg.seed*40503 + int64(idx)*997 + 11))
		nd.clockS = staggerRng.Float64() * joinStaggerS
	}
	nd.proto = phy.New(m, phy.Options{OnStage: nd.onStage})
	// The messenger speaks on-air tones, not public IDs: packets carry
	// Src/Dst in the 60-tone space the modem can actually modulate.
	nd.msgr = newNodeMessenger(nd.proto, tone, n.cfg.retries)
	nd.cont = mac.NewContender(mac.Config{
		CarrierSense:  n.cfg.carrierSense,
		PreambleAware: n.cfg.preambleAware,
		Persist:       n.cfg.persist,
		Seed:          n.cfg.seed*31 + int64(idx)*1009 + 7,
	})
	nd.txq = newNodeTxq()
	// The MAC quantum uses the full-band exchange airtime: the actual
	// on-air duration depends on the band Bob picks mid-exchange,
	// which the transmitter cannot know when it reserves the channel
	// (registration happens post-exchange with the real duration). A
	// width-1 band bounds any duration a future exchange can register.
	nd.airtimeS = nd.proto.PacketAirtimeS(modem.FullBand(m.Config()))
	if wc := nd.proto.PacketAirtimeS(modem.Band{Lo: 0, Hi: 0}); wc > n.wcAirtimeS {
		n.wcAirtimeS = wc
	}
	n.nodes[id] = nd
	n.order = append(n.order, nd)
	n.noteJoinLocked(idx)
	return nd, nil
}

// audibleRangeLabel names the audibility bound in error messages.
func audibleRangeLabel(csRangeM float64) string {
	if csRangeM <= 0 {
		return "unlimited carrier-sense range"
	}
	return fmt.Sprintf("carrier-sense range %g m", csRangeM)
}

// forEachAudibleLocked calls fn with every node index audible from
// node i (within the carrier-sense range; every other node when the
// range is unlimited), in ascending order. Callers hold n.mu.
func (n *Network) forEachAudibleLocked(i int, fn func(j int)) {
	if n.neighbors != nil {
		for _, j := range n.neighbors[i] {
			fn(j)
		}
		return
	}
	for j := range n.order {
		if j != i {
			fn(j)
		}
	}
}

// Node returns the joined node with the given ID.
func (n *Network) Node(id DeviceID) (*Node, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	return nd, ok
}

// CollisionStats reports envelope-mode collision accounting over all
// live sends so far, keyed by device ID: per device (collided, sent)
// packet counts, plus the overall collided fraction. Two packets
// collide when their transmit times fall within one packet duration
// of each other (the paper's transmitter-side definition).
func (n *Network) CollisionStats() (perDevice map[DeviceID][2]int, fraction float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	perIdx, frac := n.med.CollisionStats()
	perDevice = make(map[DeviceID][2]int, len(perIdx))
	for _, nd := range n.order {
		if c, ok := perIdx[nd.idx]; ok {
			perDevice[nd.id] = c
		}
	}
	return perDevice, frac
}

// SimulateContention runs a batch scripted-traffic contention
// simulation (the paper's Fig 19 methodology): each tx node sends
// cfg.PacketsPerTx packets with random inter-packet gaps, contending
// under the network's carrier-sense settings, and the envelope medium
// counts collisions. The run uses a scratch copy of the medium with
// the same node geometry, so live state — node clocks, the on-air
// transmission log, CollisionStats — is untouched.
//
// The per-node counts in the result are keyed by node index
// (Node.Index), matching the live medium's numbering.
func (n *Network) SimulateContention(tx []*Node, cfg ContentionConfig) ContentionResult {
	n.mu.Lock()
	defer n.mu.Unlock()
	scratch := sim.New(n.env)
	scratch.CSRangeM = n.cfg.csRangeM
	for _, nd := range n.order {
		scratch.AddNode(nd.pos)
	}
	ids := make([]int, len(tx))
	for i, nd := range tx {
		ids[i] = nd.idx
	}
	return mac.RunNetwork(scratch, ids, cfg)
}
