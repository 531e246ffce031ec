package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"aquago"
	"aquago/internal/modem"
)

// The traced run records spans from this command's own files, around
// the calls it makes into each layer: the op itself, the protocol
// stages (bounded by consecutive Trace events), channel rendering (a
// timing wrapper on the link workload's Medium), transmit-queue
// enqueues, joins, motion epochs and route queries. Spans inside the
// library are future work; until then a stage span of a network
// workload also holds the channel render, and an attempt's first stage
// holds the scheduler and MAC gate before it.

// span is one timed interval. IDs start at 1; Parent 0 is a root. Op is
// the measured op the span belongs to, -1 for set-up spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`
}

// stageSpan names the span of each protocol stage by the layer doing
// its work.
var stageSpan = map[aquago.Stage]string{
	aquago.StagePreamble: "modem.preamble",
	aquago.StageSNR:      "modem.snr",
	aquago.StageBand:     "adapt.band",
	aquago.StageFeedback: "adapt.feedback",
	aquago.StageData:     "phy.data",
	aquago.StageACK:      "phy.ack",
}

// lostStages are the stages whose failure loses an attempt (SNR
// estimation cannot fail).
var lostStages = []aquago.Stage{aquago.StagePreamble, aquago.StageBand, aquago.StageFeedback, aquago.StageData, aquago.StageACK}

// laneTrace is one lane's position inside its current op.
type laneTrace struct {
	op       int   // ID of the op span in progress, 0 between ops
	boundary int64 // end of the op's last stage, or the op's start
	pending  []int // indexes of render spans not yet under a stage
}

// tracer keeps spans and counters in memory; every method is safe for
// concurrent use, and now, child, setup and count do nothing on a nil
// tracer, so an untraced build calls them unguarded. Layer
// callbacks outside a recorded op (set-up, warm-up, blocks with
// recording off) are dropped, except set-up spans recorded on purpose.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	lanes   []laneTrace
	ops     int
	counts  map[string]float64
	samples map[string][]float64
	eqHits  uint64
	eqMiss  uint64
	net     netCounters
	wallS   float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

// now is the tracer clock in nanoseconds.
func (tr *tracer) now() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.t0))
}

func (tr *tracer) addLocked(parent int, name string, start, end int64, op int) {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Start: start, End: end, Op: op})
}

func (tr *tracer) beginOp(l int) {
	start := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for len(tr.lanes) <= l {
		tr.lanes = append(tr.lanes, laneTrace{})
	}
	tr.addLocked(0, "op", start, start, tr.ops)
	tr.ops++
	tr.lanes[l] = laneTrace{op: len(tr.spans), boundary: start, pending: tr.lanes[l].pending[:0]}
}

// endOp closes lane l's op, which tried msgs messages (or queries).
func (tr *tracer) endOp(l, msgs int) {
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ln := &tr.lanes[l]
	tr.spans[ln.op-1].End = end
	ln.op = 0
	tr.counts["msgs"] += float64(msgs)
}

// activeLocked returns lane l's state while one of its measured ops
// runs, else nil.
func (tr *tracer) activeLocked(l int) *laneTrace {
	if l >= len(tr.lanes) || tr.lanes[l].op == 0 {
		return nil
	}
	return &tr.lanes[l]
}

// stage records the stage that just concluded as a span from the lane's
// previous boundary, adopts the render spans inside it and counts the
// attempt outcome.
func (tr *tracer) stage(l int, ev aquago.StageEvent) {
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ln := tr.activeLocked(l)
	if ln == nil {
		return
	}
	tr.addLocked(ln.op, stageSpan[ev.Stage], ln.boundary, end, tr.spans[ln.op-1].Op)
	for _, i := range ln.pending {
		tr.spans[i].Parent = len(tr.spans)
	}
	ln.pending = ln.pending[:0]
	ln.boundary = end
	switch {
	case !ev.OK:
		tr.counts["lost."+ev.Stage.String()]++
	case ev.Stage == aquago.StageData:
		tr.counts["delivered"]++
	}
	if ev.Stage == aquago.StagePreamble {
		tr.counts["attempts"]++
	}
}

// render records one channel rendering that began at start and produced
// samples output samples; the next stage event adopts it.
func (tr *tracer) render(l int, start int64, samples int) {
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ln := tr.activeLocked(l)
	if ln == nil {
		return
	}
	tr.addLocked(ln.op, "channel.render", start, end, tr.spans[ln.op-1].Op)
	ln.pending = append(ln.pending, len(tr.spans)-1)
	tr.counts["render.samples"] += float64(samples)
}

// child records a call that began at start as a child of lane l's op.
func (tr *tracer) child(l int, name string, start int64) {
	if tr == nil {
		return
	}
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if ln := tr.activeLocked(l); ln != nil {
		tr.addLocked(ln.op, name, start, end, tr.spans[ln.op-1].Op)
	}
}

// setup records a set-up call that began at start as a root span.
func (tr *tracer) setup(name string, start int64) {
	if tr == nil {
		return
	}
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.addLocked(0, name, start, end, -1)
}

// count adds v to a counter while lane l is inside a measured op.
func (tr *tracer) count(l int, name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.activeLocked(l) != nil {
		tr.counts[name] += v
	}
}

// sample keeps v while lane l is inside a measured op.
func (tr *tracer) sample(l int, name string, v float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.activeLocked(l) != nil {
		tr.samples[name] = append(tr.samples[name], v)
	}
}

// measured runs one block of r with span recording on, charging the
// equalizer cache's process-wide counters, the network's counters and
// the block's wall time to the ledger.
func (tr *tracer) measured(r *runner, until time.Time, quota []int) blockStat {
	h0, m0 := modem.EqualizerCacheStats()
	n0 := readNet(r.sc)
	r.tr = tr
	b := r.block(until, quota)
	r.tr = nil
	n1 := readNet(r.sc)
	h1, m1 := modem.EqualizerCacheStats()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.eqHits += h1 - h0
	tr.eqMiss += m1 - m0
	tr.net.addGrowth(n0, n1)
	tr.wallS += b.wallS
	return b
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, children clipped to the parent and overlaps
// counted once.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			a, b := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
			if b > a {
				kids[p] = append(kids[p], [2]int64{a, b})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, c := range iv {
			if c[1] <= reach {
				continue
			}
			covered += c[1] - max(c[0], reach)
			reach = c[1]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeSpans writes one JSON record per span.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// networked is implemented by the scenarios built on an aquago.Network,
// whose scheduler and MAC counters join the ledger.
type networked interface {
	network() *aquago.Network
}

// netCounters is a reading of a network's scheduler and MAC counters.
type netCounters struct {
	granted, edges, maxConcurrent int
	collided, sent                int
}

func readNet(sc scenario) netCounters {
	nw, ok := sc.(networked)
	if !ok {
		return netCounters{}
	}
	st := nw.network().SchedulerStats()
	c := netCounters{granted: st.Granted, edges: st.ConflictEdges, maxConcurrent: st.MaxConcurrent}
	per, _ := nw.network().CollisionStats()
	for _, cs := range per {
		c.collided += cs[0]
		c.sent += cs[1]
	}
	return c
}

// addGrowth adds what the counters grew by from reading before to
// reading after; the concurrency peak is the network's lifetime peak.
func (c *netCounters) addGrowth(before, after netCounters) {
	c.granted += after.granted - before.granted
	c.edges += after.edges - before.edges
	c.collided += after.collided - before.collided
	c.sent += after.sent - before.sent
	c.maxConcurrent = after.maxConcurrent
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer is every per-layer metric a traced run prints, in print
// order. A layer the workload never calls reads 0.
var perLayer = []layerMetric{
	{"channel.render_ms_per_op", "ms"},
	{"channel.ns_per_sample", "ns"},
	{"modem.preamble_ms_per_op", "ms"},
	{"modem.snr_ms_per_op", "ms"},
	{"adapt.band_ms_per_op", "ms"},
	{"adapt.feedback_ms_per_op", "ms"},
	{"phy.data_ms_per_op", "ms"},
	{"phy.ack_ms_per_op", "ms"},
	{"app.attempts_per_msg", "count"},
	{"app.delivered_per_attempt", "ratio"},
	{"phy.lost_preamble_per_msg", "count"},
	{"phy.lost_band_per_msg", "count"},
	{"phy.lost_feedback_per_msg", "count"},
	{"phy.lost_data_per_msg", "count"},
	{"phy.lost_ack_per_msg", "count"},
	{"modem.eq_cache_hit_frac", "ratio"},
	{"sched.granted_per_op", "count"},
	{"sched.conflict_edges_per_op", "count"},
	{"sched.max_concurrent", "count"},
	{"aquago.concurrency", "ratio"},
	{"mac.collision_frac", "ratio"},
	{"sim.sir_windows_per_msg", "count"},
	{"sim.interfered_window_frac", "ratio"},
	{"sim.sir_db_p50", "dB"},
	{"txq.enqueue_us_p50", "us"},
	{"aquago.join_us_p50", "us"},
	{"aquago.join_us_p99", "us"},
	{"motion.advance_ms_p50", "ms"},
	{"motion.moved_per_epoch", "count"},
	{"motion.parked_per_epoch", "count"},
	{"route.query_us_p50", "us"},
	{"route.query_us_p90", "us"},
	{"route.hops_mean", "count"},
	{"trace_overhead_frac", "ratio"},
}

func init() {
	for _, k := range kernels {
		perLayer = append(perLayer,
			layerMetric{"kernel." + k.name + ".ns_per_op", "ns"},
			layerMetric{"kernel." + k.name + ".allocs_per_op", "count"})
	}
}

// layerMetrics derives the ledger from the recorded spans and counters.
func (tr *tracer) layerMetrics() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	self := selfTimes(tr.spans)
	durs := map[string][]float64{}
	selfSum := map[string]float64{}
	for i, s := range tr.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		selfSum[s.Name] += float64(self[i])
	}
	total := func(name string) (ns float64) {
		for _, d := range durs[name] {
			ns += d
		}
		return ns
	}
	ops, msgs, c, nc := float64(tr.ops), tr.counts["msgs"], tr.counts, tr.net
	m := map[string]float64{
		"channel.render_ms_per_op":    div(total("channel.render"), 1e6*ops),
		"channel.ns_per_sample":       div(total("channel.render"), c["render.samples"]),
		"app.attempts_per_msg":        div(c["attempts"], msgs),
		"app.delivered_per_attempt":   div(c["delivered"], c["attempts"]),
		"modem.eq_cache_hit_frac":     div(float64(tr.eqHits), float64(tr.eqHits+tr.eqMiss)),
		"sched.granted_per_op":        div(float64(nc.granted), ops),
		"sched.conflict_edges_per_op": div(float64(nc.edges), ops),
		"sched.max_concurrent":        float64(nc.maxConcurrent),
		"aquago.concurrency":          div(total("op"), 1e9*tr.wallS),
		"mac.collision_frac":          div(float64(nc.collided), float64(nc.sent)),
		"sim.sir_windows_per_msg":     div(c["sir.windows"], msgs),
		"sim.interfered_window_frac":  div(c["sir.interfered"], c["sir.windows"]),
		"sim.sir_db_p50":              quantile(tr.samples["sir.db"], 0.5),
		"txq.enqueue_us_p50":          quantile(durs["txq.enqueue"], 0.5) / 1e3,
		"aquago.join_us_p50":          quantile(durs["aquago.join"], 0.5) / 1e3,
		"aquago.join_us_p99":          quantile(durs["aquago.join"], 0.99) / 1e3,
		"motion.advance_ms_p50":       quantile(durs["motion.advance"], 0.5) / 1e6,
		"motion.moved_per_epoch":      div(c["motion.moved"], ops),
		"motion.parked_per_epoch":     div(c["motion.parked"], ops),
		"route.query_us_p50":          quantile(durs["route.query"], 0.5) / 1e3,
		"route.query_us_p90":          quantile(durs["route.query"], 0.9) / 1e3,
		"route.hops_mean":             div(c["route.hops"], c["route.found"]),
	}
	for _, name := range stageSpan {
		m[name+"_ms_per_op"] = div(selfSum[name], 1e6*ops)
	}
	for _, st := range lostStages {
		m["phy.lost_"+st.String()+"_per_msg"] = div(c["lost."+st.String()], msgs)
	}
	return m
}

// div is a/b, or 0 when nothing was measured.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
