package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	// warmUpOps is how many ops each set-up runs before timing starts, so
	// FFT plan tables, link caches and the equalizer cache are filled.
	warmUpOps = 10
	// setups is how many times a timed run builds its workload; setup_s
	// is the median. The last build is the one the loop runs on.
	setups = 5
	// blockS is the length of a measured block. The live heap is sampled
	// after each, and a traced run alternates blocks with span recording
	// off and on, so both halves see the same host conditions.
	blockS = 0.25
)

// lane is one independent op sequence of a scenario: ops of one lane run
// one at a time, in order, on one goroutine.
type lane struct {
	done   int         // ops run so far
	target int         // ops covered by the digest and guaranteed to run
	digest hash.Hash64 // simulated outcomes of the first target ops
}

// runner drives one built scenario: warm-up, measured blocks and the
// accumulated outcomes.
type runner struct {
	sc      scenario
	tr      *tracer // records op spans during a traced block, else nil
	workers int
	lanes   []*lane

	mu     sync.Mutex
	tally  tally // measured messages or queries
	failed int   // ops with a failed check, warm-up included
	errs   []error
}

// laneTargets spreads total ops over n lanes the way round-robin
// dispatch does: the first total%n lanes get one more.
func laneTargets(total, n int) []int {
	t := make([]int, n)
	for l := range t {
		t[l] = total / n
		if l < total%n {
			t[l]++
		}
	}
	return t
}

// newRunner builds the workload, with its layer hooks feeding tr when
// tr is not nil, and runs its warm-up ops. Every run reaches -ops
// measured ops, or minOps without it, and the digest covers them.
func newRunner(w *workload, cfg config, tr *tracer) (*runner, error) {
	sc, err := w.build(cfg.seed, cfg.workers, tr)
	if err != nil {
		return nil, err
	}
	floor := minOps
	if cfg.ops > 0 {
		floor = cfg.ops
	}
	n := sc.lanes()
	r := &runner{sc: sc, workers: min(cfg.workers, n)}
	for _, t := range laneTargets(warmUpOps+floor, n) {
		r.lanes = append(r.lanes, &lane{target: t, digest: fnv.New64a()})
	}
	for i := 0; i < warmUpOps; i++ {
		r.runOp(i%n, false)
	}
	return r, nil
}

// runOp runs the lane's next op and returns its latency; measured ops
// add to the tally.
func (r *runner) runOp(l int, measured bool) time.Duration {
	ln := r.lanes[l]
	var out io.Writer = io.Discard
	if ln.done < ln.target {
		out = ln.digest
	}
	if measured && r.tr != nil {
		r.tr.beginOp(l)
	}
	t0 := time.Now()
	t, err := r.sc.op(l, ln.done, out)
	d := time.Since(t0)
	if measured && r.tr != nil {
		r.tr.endOp(l, t.tried)
	}
	ln.done++
	r.mu.Lock()
	defer r.mu.Unlock()
	if measured {
		r.tally.tried += t.tried
		r.tally.ok += t.ok
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Errorf("lane %d op %d: %w", l, ln.done-1, err))
		}
	}
	return d
}

// blockStat is what one block cost.
type blockStat struct {
	ops    int
	wallS  float64
	cpuS   float64
	allocB uint64
	latMS  []float64
}

func (b blockStat) rate() float64 { return div(float64(b.ops), b.wallS) }

// merge adds blocks up into one.
func merge(stats []blockStat) blockStat {
	var m blockStat
	for _, b := range stats {
		m.ops += b.ops
		m.wallS += b.wallS
		m.cpuS += b.cpuS
		m.allocB += b.allocB
		m.latMS = append(m.latMS, b.latMS...)
	}
	return m
}

// hostSample is a point-in-time reading of the host costs a block
// reports.
type hostSample struct {
	at     time.Time
	cpuS   float64
	allocB uint64
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		at:     time.Now(),
		cpuS:   tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocB: ms.TotalAlloc,
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// block runs measured ops until the deadline; with a quota, each lane
// then runs on until it has done at least quota[l] ops. Each client
// goroutine owns the lanes l ≡ g (mod workers) and cycles through them.
func (r *runner) block(until time.Time, quota []int) blockStat {
	before := sampleHost()
	var b blockStat
	var wg sync.WaitGroup
	var mu sync.Mutex
	more := func(l int) bool {
		return time.Now().Before(until) || quota != nil && r.lanes[l].done < quota[l]
	}
	for g := 0; g < r.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			for progressed := true; progressed; {
				progressed = false
				for l := g; l < len(r.lanes); l += r.workers {
					if !more(l) {
						continue
					}
					lat = append(lat, float64(r.runOp(l, true))/1e6)
					progressed = true
				}
			}
			mu.Lock()
			b.latMS = append(b.latMS, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	after := sampleHost()
	b.ops = len(b.latMS)
	b.wallS = after.at.Sub(before.at).Seconds()
	b.cpuS = after.cpuS - before.cpuS
	b.allocB = after.allocB - before.allocB
	return b
}

// targets returns each lane's digest target: the ops every run must
// reach.
func (r *runner) targets() []int {
	t := make([]int, len(r.lanes))
	for l, ln := range r.lanes {
		t[l] = ln.target
	}
	return t
}

// belowTargets reports whether some lane has not reached its target.
func (r *runner) belowTargets() bool {
	for _, ln := range r.lanes {
		if ln.done < ln.target {
			return true
		}
	}
	return false
}

// digest folds the lane digests, in lane order, into one FNV-64 value.
func (r *runner) digest() uint64 {
	h := fnv.New64a()
	for _, ln := range r.lanes {
		fmt.Fprintf(h, "%x.", ln.digest.Sum64())
	}
	return h.Sum64()
}

// measure runs blocks for cfg.seconds, then tops up any lane short of
// its target; with -ops it runs exactly the targets. After each block it
// samples the live heap.
func measure(r *runner, cfg config) (all blockStat, heapMB []float64) {
	var stats []blockStat
	add := func(b blockStat) {
		stats = append(stats, b)
		heapMB = append(heapMB, liveHeapMB())
	}
	end := time.Now().Add(seconds(cfg.seconds))
	for now := time.Now(); cfg.ops == 0 && now.Before(end); now = time.Now() {
		add(r.block(now.Add(seconds(blockS)), nil))
	}
	if r.belowTargets() {
		add(r.block(time.Now(), r.targets()))
	}
	return merge(stats), heapMB
}

// liveHeapMB is the heap the latest collection found live. It forces
// no collection: a forced one every block made the runtime return and
// re-fault pages, slowing the loop it measures.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// benchRun is the untraced run: set up several times, measure, check,
// and report the end-to-end metrics.
func benchRun(w *workload, cfg config) (report, error) {
	n := setups
	if cfg.ops > 0 {
		n = 1
	}
	var setupS []float64
	var r *runner
	for i := 0; i < n; i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = newRunner(w, cfg, nil); err != nil {
			return report{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	all, heapMB := measure(r, cfg)
	if err := r.sc.verify(); err != nil {
		r.errs = append(r.errs, err)
	}

	rep := report{
		attempted: all.ops,
		failed:    r.failed,
		errs:      r.errs,
		metrics: []metric{
			{"setup_s", median(setupS), "s"},
			{"ops_per_s", all.rate(), "op/s"},
			{"op_ms_p50", quantile(all.latMS, 0.50), "ms"},
			{"op_ms_p90", quantile(all.latMS, 0.90), "ms"},
			{"cpu_ms_per_op", 1e3 * div(all.cpuS, float64(all.ops)), "ms"},
			{"alloc_kb_per_op", div(float64(all.allocB)/1024, float64(all.ops)), "KiB"},
			{"live_heap_mb", median(heapMB), "MiB"},
			{"success_frac", div(float64(r.tally.ok), float64(r.tally.tried)), "ratio"},
		},
		info: []string{
			fmt.Sprintf("workload %s seed %d, %d client goroutines, %d network workers", w.name, cfg.seed, r.workers, cfg.workers),
			fmt.Sprintf("ops %d; %d setups; %d messages or queries tried", all.ops, n, r.tally.tried),
			fmt.Sprintf("digest %016x over the first %d ops", r.digest(), sum(r.targets())),
		},
	}
	return rep, nil
}

// traceRun is the traced run. It builds the workload once, with its
// layer boundaries hooked, and alternates measured blocks with span
// recording off and on, so both see the same host conditions; the
// difference in throughput is trace_overhead_frac. The per-layer
// metrics come from the recording blocks' spans and counters. With -ops
// every measured op records.
func traceRun(w *workload, cfg config, stderr io.Writer) (report, error) {
	tr := newTracer()
	r, err := newRunner(w, cfg, tr)
	if err != nil {
		return report{}, err
	}
	var plainBlocks, tracedBlocks []blockStat
	end := time.Now().Add(seconds(cfg.seconds))
	for now := time.Now(); cfg.ops == 0 && now.Before(end); now = time.Now() {
		plainBlocks = append(plainBlocks, r.block(now.Add(seconds(blockS)), nil))
		tracedBlocks = append(tracedBlocks, tr.measured(r, time.Now().Add(seconds(blockS)), nil))
	}
	if r.belowTargets() {
		tracedBlocks = append(tracedBlocks, tr.measured(r, time.Now(), r.targets()))
	}
	plain, traced := merge(plainBlocks), merge(tracedBlocks)
	if err := r.sc.verify(); err != nil {
		r.errs = append(r.errs, err)
	}

	layers := tr.layerMetrics()
	if plain.ops > 0 {
		layers["trace_overhead_frac"] = 1 - traced.rate()/plain.rate()
	}
	if cfg.ops == 0 {
		k, err := runKernels(stderr)
		if err != nil {
			return report{}, err
		}
		for name, v := range k {
			layers[name] = v
		}
	}
	rep := report{
		attempted: plain.ops + traced.ops,
		failed:    r.failed,
		errs:      r.errs,
		info: []string{
			fmt.Sprintf("workload %s seed %d, %d client goroutines, %d network workers, traced", w.name, cfg.seed, r.workers, cfg.workers),
			fmt.Sprintf("ops %d plain, %d traced; %d spans", plain.ops, traced.ops, len(tr.spans)),
			fmt.Sprintf("digest %016x over the first %d ops", r.digest(), sum(r.targets())),
		},
	}
	for _, m := range perLayer {
		rep.metrics = append(rep.metrics, metric{m.name, layers[m.name], m.unit})
	}
	if cfg.spans != "" {
		if err := tr.writeSpans(cfg.spans); err != nil {
			return report{}, err
		}
		rep.info = append(rep.info, "spans written to "+cfg.spans)
	}
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
