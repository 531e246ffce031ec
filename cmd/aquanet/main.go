// Command aquanet simulates an underwater network of AquaApp devices
// contending for the acoustic channel. Bare, it reproduces the paper's
// MAC evaluation (Fig 19): collision fractions with and without
// carrier sense for configurable transmitter counts. Each subcommand
// runs one point of a beyond-paper harness:
//
//   - load drives a live Network with Poisson offered load per node,
//     enqueueing every message on its node's transmit queue in arrival
//     order, and reports delivered goodput, latency percentiles,
//     collision fraction and scheduler counters (the sweep lives in
//     `aquabench -exp macload`).
//   - relay routes a bulk payload down a multi-hop relay line —
//     store-and-forward over the carrier-sense MAC, per-packet band
//     re-adaptation, per-hop progress — and reports end-to-end goodput
//     and latency (`aquabench -exp multihop`); -pipelined overlaps packets
//     on non-interfering hops, and -persist/-adaptive-backoff pick the
//     p-persistent slotted MAC and airtime-scaled backoff quanta.
//   - scale builds a harbor-scale pod lattice, spatially reusing the
//     60-tone space under a bounded carrier-sense range, relays
//     cross-harbor messages and reports delivery counts, hops, makespan
//     and scheduler counters (`aquabench -exp scale`).
//   - stream opens a reliable selective-repeat ARQ stream over a single
//     link and reports delivery, retransmission and goodput accounting.
//   - image sends an AquaScope-style progressive image (CRC-8 per
//     block) over a stream, a relay line (-hops) or concurrent streams
//     (-streams) and reports image goodput and time-to-first-usable-
//     preview (`aquabench -exp image`).
//   - mobility drifts a diver along a fixed relay line while
//     bulk-transferring in chunks — one position epoch per chunk — and
//     reports goodput, motion epochs and route repairs (`aquabench
//     -exp mobility`).
//
// Every harness defines only its own flags and binds them straight
// into its internal/exp point, whose Validate rejects what cannot run.
// A flag-parse error exits 2; an invalid point or failed run exits 1.
// All modes run entirely on the public Network API.
//
// Usage:
//
//	aquanet [-tx 3] [-packets 120] [-runs 5] [-seed 1] [-env bridge]
//	        [-csrange 0] [-preamble-aware]
//	aquanet load [-nodes 8] [-rate 0.05] [-duration 120]
//	        [-mode envelope|waveform] [-no-cs] [-workers 0]
//	        [-seed 1] [-env bridge] [-csrange 0] [-preamble-aware]
//	aquanet relay [-hops 3] [-spacing 25] [-bulk 32] [-policy minhop]
//	        [-pipelined] [-persist 0] [-adaptive-backoff]
//	        [-mode envelope|waveform] [-seed 1] [-env bridge] [-csrange 0]
//	aquanet scale [-pods-x 5] [-pods-y 5] [-podsize 10] [-msgs 8]
//	        [-workers 0] [-seed 1] [-env bridge] [-csrange 0]
//	aquanet stream [-range 25] [-bytes 32] [-window 0] [-stream-retries 4]
//	        [-rto 0] [-mode envelope|waveform] [-workers 0] [-seed 1] [-env bridge]
//	aquanet image [-blocks 16] [-blocksize 7] [-preview 0] [-hops 1]
//	        [-streams 1] [-range 25] [-window 0] [-stream-retries 4] [-rto 0]
//	        [-mode envelope|waveform] [-workers 0] [-seed 1] [-env bridge]
//	aquanet mobility [-hops 3] [-spacing 25] [-bulk 32] [-chunk 8]
//	        [-drift 1] [-pipelined] [-workers 0] [-seed 1]
//	        [-env bridge] [-csrange 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"aquago"

	"aquago/internal/channel"
	"aquago/internal/exp"
)

// maxSeed bounds -seed so per-run derived seeds (seed + run*7919)
// cannot overflow, keeping output reproducible across platforms.
const maxSeed = math.MaxInt64 / 2

const preambleAwareUsage = "carrier sense also detects preambles (hears through the silent feedback window, §2.4)"

// harnesses maps each subcommand to the function that defines its
// flags; the empty name is the bare Fig 19 mode.
var harnesses = map[string]func(*flag.FlagSet) job{
	"":         fig19Flags,
	"load":     loadFlags,
	"relay":    relayFlags,
	"scale":    scaleFlags,
	"stream":   streamFlags,
	"image":    imageFlags,
	"mobility": mobilityFlags,
}

// A job is one invocation's point with its flags bound into it: the
// fields behind the shared flags, the point to validate, and the
// printer that runs it.
type job struct {
	shared
	point interface{ Validate() error }
	print func(io.Writer) error
}

// shared points at the point fields behind the flags several
// harnesses share. Every harness binds seed and env; one without a
// workers, csrange or mode flag leaves that field nil.
type shared struct {
	seed    *int64
	env     *aquago.Environment
	workers *int
	csRange *float64
	mode    *aquago.ContentionMode
}

// define adds the shared flags the harness binds to fs.
func (s shared) define(fs *flag.FlagSet) {
	fs.Int64Var(s.seed, "seed", 1, "base random seed")
	*s.env = aquago.Bridge
	fs.Func("env", "environment: bridge, park, lake, beach, museum or bay (default bridge)", func(v string) error {
		env, ok := channel.ByName(v)
		if !ok {
			return errors.New("unknown environment")
		}
		*s.env = env
		return nil
	})
	if s.workers != nil {
		fs.IntVar(s.workers, "workers", 0, "network scheduler worker slots, 0 = one per core")
	}
	if s.csRange != nil {
		fs.Float64Var(s.csRange, "csrange", 0,
			"carrier-sense audibility range in meters, 0 = unlimited (relay, mobility: 1.2 x spacing; scale: 30)")
	}
	if s.mode != nil {
		*s.mode = aquago.EnvelopeContention
		fs.Func("mode", "contention mode: envelope or waveform (default envelope)", func(v string) error {
			switch v {
			case "envelope":
				*s.mode = aquago.EnvelopeContention
			case "waveform":
				*s.mode = aquago.WaveformContention
			default:
				return errors.New("pick envelope or waveform")
			}
			return nil
		})
	}
}

// modeName spells a contention mode as -mode takes it.
func modeName(m aquago.ContentionMode) string {
	if m == aquago.WaveformContention {
		return "waveform"
	}
	return "envelope"
}

// check rejects shared values no harness can run: a seed outside
// [0, maxSeed], a negative worker count, and a non-finite or negative
// carrier-sense range.
func (s shared) check() error {
	switch {
	case *s.seed < 0 || *s.seed > maxSeed:
		return fmt.Errorf("-seed %d out of range [0, %d]", *s.seed, int64(maxSeed))
	case s.workers != nil && *s.workers < 0:
		return fmt.Errorf("-workers %d: use 0 for one per core", *s.workers)
	case s.csRange != nil && (math.IsNaN(*s.csRange) || math.IsInf(*s.csRange, 0)):
		return fmt.Errorf("-csrange %v is not a finite distance", *s.csRange)
	case s.csRange != nil && *s.csRange < 0:
		return fmt.Errorf("-csrange %g: a carrier-sense range cannot be negative (use 0 for unlimited)", *s.csRange)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one aquanet invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	j, code := parse(args, stderr)
	if j == nil {
		return code
	}
	if err := j.print(stdout); err != nil {
		fmt.Fprintln(stderr, "aquanet:", err)
		return 1
	}
	return 0
}

// parse selects the harness args[0] names (bare flags select Fig 19),
// parses its flags straight into a fresh point and validates it. On a
// nil job the caller stops with the returned exit status: 0 after
// -help, 2 for a usage error, 1 for an invalid point.
func parse(args []string, stderr io.Writer) (*job, int) {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	flags, ok := harnesses[name]
	if !ok {
		fmt.Fprintf(stderr, "aquanet: unknown harness %q: pick load, relay, scale, stream, image or mobility\n", name)
		return nil, 2
	}
	fs := flag.NewFlagSet(strings.TrimSpace("aquanet "+name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags]\n", fs.Name())
		if name == "" {
			fmt.Fprintln(stderr, "       aquanet load|relay|scale|stream|image|mobility [flags]")
		}
		fs.PrintDefaults()
	}
	j := flags(fs)
	j.shared.define(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "aquanet: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return nil, 2
	}
	err := j.check()
	if err == nil {
		err = j.point.Validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "aquanet:", err)
		return nil, 1
	}
	return &j, 0
}

// fig19 is the bare mode's configuration; Fig 19 has no exp point.
type fig19 struct {
	nTx, packets, runs int
	seed               int64
	csRange            float64
	preambleAware      bool
	env                aquago.Environment
}

// Validate rejects transmitter, packet and run counts that would
// silently produce garbage output (the network fits at most 59
// transmitters beside the receiver).
func (c *fig19) Validate() error {
	switch {
	case c.nTx < 1:
		return errors.New("need at least one transmitter (-tx >= 1)")
	case c.nTx > 59:
		return fmt.Errorf("-tx %d exceeds the 59 transmitters a 60-device network can hold", c.nTx)
	case c.packets < 1:
		return fmt.Errorf("-packets %d: need at least one packet per transmitter", c.packets)
	case c.runs < 1:
		return fmt.Errorf("-runs %d: need at least one run", c.runs)
	}
	return nil
}

func fig19Flags(fs *flag.FlagSet) job {
	c := &fig19{}
	fs.IntVar(&c.nTx, "tx", 3, "number of transmitters")
	fs.IntVar(&c.packets, "packets", 120, "packets per transmitter")
	fs.IntVar(&c.runs, "runs", 5, "independent runs to average")
	fs.BoolVar(&c.preambleAware, "preamble-aware", false, preambleAwareUsage)
	return job{
		shared: shared{seed: &c.seed, env: &c.env, csRange: &c.csRange},
		point:  c,
		print:  func(w io.Writer) error { return runFig19(w, c) },
	}
}

func loadFlags(fs *flag.FlagSet) job {
	pt := &exp.MacLoadPoint{Pods: 1, CarrierSense: true}
	fs.IntVar(&pt.PodSize, "nodes", 8, "node count, all offering traffic")
	fs.Float64Var(&pt.RateHz, "rate", 0.05, "Poisson message rate per node, msg/s")
	fs.Float64Var(&pt.DurationS, "duration", 120, "arrival window in virtual seconds")
	fs.BoolFunc("no-cs", "disable carrier sense", func(v string) error {
		off, err := strconv.ParseBool(v)
		pt.CarrierSense = !off
		return err
	})
	fs.BoolVar(&pt.PreambleAware, "preamble-aware", false, preambleAwareUsage)
	return job{
		shared: shared{seed: &pt.Seed, env: &pt.Env, workers: &pt.Workers, csRange: &pt.CSRangeM, mode: &pt.Mode},
		point:  pt,
		print:  func(w io.Writer) error { return runLoad(w, *pt) },
	}
}

func relayFlags(fs *flag.FlagSet) job {
	pt := &exp.MultiHopPoint{Policy: aquago.MinHop}
	fs.IntVar(&pt.Hops, "hops", 3, "relay path length in hops")
	fs.Float64Var(&pt.SpacingM, "spacing", 25, "distance between adjacent relay nodes in meters")
	fs.IntVar(&pt.PayloadBytes, "bulk", 32, "bulk payload size in bytes")
	fs.Func("policy", "routing policy: minhop or minetx (default minhop)", func(v string) error {
		switch v {
		case "minhop":
			pt.Policy = aquago.MinHop
		case "minetx":
			pt.Policy = aquago.MinETX
		default:
			return errors.New("pick minhop or minetx")
		}
		return nil
	})
	fs.BoolVar(&pt.Pipelined, "pipelined", false, "pipeline the bulk transfer over per-relay transmit queues")
	fs.Float64Var(&pt.Persist, "persist", 0, "p-persistent MAC transmit probability in (0,1], 0 = classic backoff")
	fs.BoolVar(&pt.AdaptiveBackoff, "adaptive-backoff", false, "scale MAC backoff quanta to the adapted band's airtime")
	return job{
		shared: shared{seed: &pt.Seed, env: &pt.Env, csRange: &pt.CSRangeM, mode: &pt.Mode},
		point:  pt,
		print:  func(w io.Writer) error { return runRelay(w, *pt) },
	}
}

func scaleFlags(fs *flag.FlagSet) job {
	pt := &exp.ScalePoint{}
	fs.IntVar(&pt.PodsX, "pods-x", 5, "pod lattice columns")
	fs.IntVar(&pt.PodsY, "pods-y", 5, "pod lattice rows")
	fs.IntVar(&pt.PodSize, "podsize", 10, "devices per pod, 1..15")
	fs.IntVar(&pt.Msgs, "msgs", 8, "cross-harbor messages to relay")
	return job{
		shared: shared{seed: &pt.Seed, env: &pt.Env, workers: &pt.Workers, csRange: &pt.CSRangeM},
		point:  pt,
		print:  func(w io.Writer) error { return runScale(w, *pt) },
	}
}

func streamFlags(fs *flag.FlagSet) job {
	pt := &exp.StreamPoint{}
	fs.Float64Var(&pt.RangeM, "range", 25, "link length in meters")
	fs.IntVar(&pt.Bytes, "bytes", 32, "stream payload size in bytes")
	fs.IntVar(&pt.Window, "window", 0, "ARQ sender window in segments, 0 = default")
	fs.IntVar(&pt.Retries, "stream-retries", 4, "per-segment retransmission budget, >= 1")
	fs.Float64Var(&pt.RTOS, "rto", 0, "retransmission backoff quantum in virtual seconds, 0 = adaptive")
	return job{
		shared: shared{seed: &pt.Seed, env: &pt.Env, workers: &pt.Workers, mode: &pt.Mode},
		point:  pt,
		print:  func(w io.Writer) error { return runStream(w, *pt) },
	}
}

func imageFlags(fs *flag.FlagSet) job {
	pt := &exp.ImagePoint{}
	fs.IntVar(&pt.Blocks, "blocks", 16, "image blocks")
	fs.IntVar(&pt.BlockBytes, "blocksize", 7, "bytes per image block before its CRC-8 trailer")
	fs.IntVar(&pt.PreviewBlocks, "preview", 0, "blocks needed for a usable preview, 0 = a quarter of the image")
	fs.IntVar(&pt.Hops, "hops", 1, "relay line length in hops, 1 = a direct stream")
	fs.IntVar(&pt.Streams, "streams", 1, "concurrent image streams through one pod")
	fs.Float64Var(&pt.RangeM, "range", 25, "link length / hop spacing in meters")
	fs.IntVar(&pt.Window, "window", 0, "ARQ sender window in segments, 0 = default")
	fs.IntVar(&pt.Retries, "stream-retries", 4, "per-segment retransmission budget, >= 1")
	fs.Float64Var(&pt.RTOS, "rto", 0, "retransmission backoff quantum in virtual seconds, 0 = adaptive")
	return job{
		shared: shared{seed: &pt.Seed, env: &pt.Env, workers: &pt.Workers, mode: &pt.Mode},
		point:  pt,
		print:  func(w io.Writer) error { return runImage(w, *pt) },
	}
}

func mobilityFlags(fs *flag.FlagSet) job {
	pt := &exp.MobilityPoint{}
	fs.IntVar(&pt.Hops, "hops", 3, "initial relay path length in hops")
	fs.Float64Var(&pt.SpacingM, "spacing", 25, "distance between adjacent relay nodes in meters")
	fs.IntVar(&pt.PayloadBytes, "bulk", 32, "bulk payload size in bytes")
	fs.IntVar(&pt.ChunkBytes, "chunk", 8, "bulk chunk size in bytes, one motion epoch per chunk")
	fs.Float64Var(&pt.DriftSpeedMS, "drift", 1, "diver drift speed in m/s, 0 = static baseline")
	fs.BoolVar(&pt.Pipelined, "pipelined", false, "pipeline each chunk over per-relay transmit queues")
	return job{
		shared: shared{seed: &pt.Seed, env: &pt.Env, workers: &pt.Workers, csRange: &pt.CSRangeM},
		point:  pt,
		print:  func(w io.Writer) error { return runMobility(w, *pt) },
	}
}

// runLoad measures one offered-load point and prints the same numbers
// the macload harness tabulates.
func runLoad(w io.Writer, pt exp.MacLoadPoint) error {
	sensing := "carrier sense"
	switch {
	case !pt.CarrierSense:
		sensing = "no carrier sense"
	case pt.PreambleAware:
		sensing = "preamble-aware carrier sense"
	}
	fmt.Fprintf(w, "Offered-load simulation: %d nodes, %.3g msg/s/node over %.4g s, %s, %s mode, %s\n",
		pt.PodSize, pt.RateHz, pt.DurationS, pt.Env.Name, modeName(pt.Mode), sensing)
	res, err := exp.RunMacLoadPoint(pt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "offered     %6d msgs %10.2f bps\n", res.OfferedMsgs, res.OfferedBPS)
	fmt.Fprintf(w, "goodput     %6d msgs %10.2f bps  (makespan %.1f s)\n",
		res.DeliveredMsgs, res.GoodputBPS, res.MakespanS)
	fmt.Fprintf(w, "latency     p50 %.2f s   p90 %.2f s   p99 %.2f s\n",
		res.LatencyP50S, res.LatencyP90S, res.LatencyP99S)
	fmt.Fprintf(w, "losses      %d busy-drops, %d unacked, collisions %.1f%%\n",
		res.BusyDrops, res.NoACKs, 100*res.CollisionFraction)
	util := 0.0
	if res.MakespanS > 0 {
		util = res.Sched.AirtimeS / res.MakespanS
	}
	fmt.Fprintf(w, "scheduler   %d granted, %d committed, airtime %.1f s (util %.0f%%), peak concurrency %d on %d workers\n",
		res.Sched.Granted, res.Sched.Committed, res.Sched.AirtimeS, 100*util,
		res.Sched.MaxConcurrent, res.Sched.Workers)
	return nil
}

// runRelay measures one bulk relay transfer, printing per-hop
// progress as the payload store-and-forwards down the line.
func runRelay(w io.Writer, pt exp.MultiHopPoint) error {
	transfer := "store-and-forward"
	if pt.Pipelined {
		transfer = "pipelined"
	}
	fmt.Fprintf(w, "Relay simulation: %d bytes over %d hops (%g m spacing), %s, %s mode, %v routing, %s\n",
		pt.PayloadBytes, pt.Hops, pt.SpacingM, pt.Env.Name, modeName(pt.Mode), pt.Policy, transfer)
	// Per-hop progress: one line per completed hop exchange (the data
	// stage carries the band the packet re-adapted onto).
	pt.Trace = aquago.TraceFunc(func(ev aquago.StageEvent) {
		if ev.Stage != aquago.StageData {
			return
		}
		status := "lost"
		if ev.OK {
			status = "ok"
		}
		fmt.Fprintf(w, "  pkt %2d/%d  hop %d/%d  data %-4s  band [%d..%d]\n",
			ev.BulkPkt+1, ev.BulkPkts, ev.Hop+1, ev.PathHops, status, ev.Band.Lo, ev.Band.Hi)
	})
	res, err := exp.RunMultiHopPoint(pt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "delivered   %d/%d packets (%d attempts) over %d hops\n",
		res.DeliveredPackets, res.Packets, res.Attempts, res.Hops)
	fmt.Fprintf(w, "end-to-end  %.2f s latency, %.2f bps goodput\n", res.LatencyS, res.GoodputBPS)
	return nil
}

// runMobility drifts the diver down the relay line and prints the
// same numbers the mobility harness tabulates.
func runMobility(w io.Writer, pt exp.MobilityPoint) error {
	transfer := "store-and-forward with in-flight route splices"
	if pt.Pipelined {
		transfer = "pipelined, fresh route per chunk"
	}
	fmt.Fprintf(w, "Mobility simulation: %d bytes in %d-byte chunks over %d hops (%g m spacing), diver drifting %g m/s, %s, %s\n",
		pt.PayloadBytes, pt.ChunkBytes, pt.Hops, pt.SpacingM, pt.DriftSpeedMS, pt.Env.Name, transfer)
	res, err := exp.RunMobilityPoint(pt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "delivered   %d/%d packets (%d attempts, %d retries) in %d chunks\n",
		res.DeliveredPackets, res.Packets, res.Attempts, res.Retries, res.Chunks)
	fmt.Fprintf(w, "motion      %d position epoch(s), %d route repair(s), route %d -> %d hops\n",
		res.Epochs, res.Reroutes, res.InitialHops, res.FinalHops)
	if res.Failed {
		fmt.Fprintf(w, "relay       failed after chunk %d; the totals cover what was delivered\n", res.Chunks)
	}
	fmt.Fprintf(w, "end-to-end  %.2f s latency, %.2f bps goodput\n", res.LatencyS, res.GoodputBPS)
	return nil
}

// runScale builds one harbor point and prints the deterministic
// traffic outcome the scale harness tabulates.
func runScale(w io.Writer, pt exp.ScalePoint) error {
	pt = pt.Resolved()
	fmt.Fprintf(w, "Harbor simulation: %dx%d pods of %d devices (%d nodes), %g m carrier sense, %s\n",
		pt.PodsX, pt.PodsY, pt.PodSize, pt.PodsX*pt.PodsY*pt.PodSize, pt.CSRangeM, pt.Env.Name)
	res, err := exp.RunScalePoint(pt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "delivered   %d/%d cross-harbor messages over %d total hops (makespan %.1f s)\n",
		res.Delivered, res.Msgs, res.TotalHops, res.MakespanS)
	fmt.Fprintf(w, "losses      %d busy-drops, %d unacked\n", res.BusyDrops, res.NoACKs)
	fmt.Fprintf(w, "scheduler   %d granted, %d committed, airtime %.1f s\n",
		res.Sched.Granted, res.Sched.Committed, res.Sched.AirtimeS)
	return nil
}

// runStream measures one reliable stream transfer and prints the ARQ
// accounting the image harness aggregates.
func runStream(w io.Writer, pt exp.StreamPoint) error {
	pt = pt.Resolved()
	fmt.Fprintf(w, "Stream simulation: %d bytes over %g m, %s, %s mode, window %d, %d retransmission(s) per segment\n",
		pt.Bytes, pt.RangeM, pt.Env.Name, modeName(pt.Mode), pt.Window, pt.Retries)
	res, err := exp.RunStreamPoint(pt)
	if err != nil {
		return err
	}
	outcome := "complete"
	if res.Degraded {
		outcome = "degraded (budget exhausted; delivered prefix kept)"
	}
	fmt.Fprintf(w, "delivered   %d/%d bytes in order, %s\n", res.DeliveredBytes, res.Bytes, outcome)
	fmt.Fprintf(w, "arq         %d segments, %d attempts, %d retransmit(s), %d duplicate(s) absorbed\n",
		res.Segments, res.Attempts, res.Retransmits, res.DupSegments)
	fmt.Fprintf(w, "end-to-end  first byte %.2f s, %.2f s latency, %.2f bps goodput\n",
		res.FirstByteS, res.LatencyS, res.GoodputBPS)
	return nil
}

// runImage measures one progressive image transmission and prints the
// goodput and preview numbers the image harness sweeps.
func runImage(w io.Writer, pt exp.ImagePoint) error {
	pt = pt.Resolved()
	transport := "direct stream"
	switch {
	case pt.Hops > 1:
		transport = fmt.Sprintf("%d-hop pipelined relay", pt.Hops)
	case pt.Streams > 1:
		transport = fmt.Sprintf("%d concurrent streams", pt.Streams)
	}
	fmt.Fprintf(w, "Image simulation: %d blocks x %d B (+CRC-8) over %g m, %s, %s mode, %s\n",
		pt.Blocks, pt.BlockBytes, pt.RangeM, pt.Env.Name, modeName(pt.Mode), transport)
	res, err := exp.RunImagePoint(pt)
	if err != nil {
		return err
	}
	outcome := "complete"
	if res.Degraded {
		outcome = "degraded to the verified prefix"
	}
	totalBlocks := res.Blocks
	if pt.Streams > 1 {
		totalBlocks *= pt.Streams
	}
	fmt.Fprintf(w, "image       %d/%d blocks usable, %d bad CRC, %s\n",
		res.UsableBlocks, totalBlocks, res.BadCRCBlocks, outcome)
	fmt.Fprintf(w, "transport   %d bytes delivered, %d attempts, %d retransmit(s), %d duplicate(s)\n",
		res.DeliveredBytes, res.Attempts, res.Retransmits, res.DupSegments)
	preview := "never"
	if res.FirstPreviewS > 0 {
		preview = fmt.Sprintf("%.2f s", res.FirstPreviewS)
	}
	fmt.Fprintf(w, "end-to-end  first usable preview %s, %.2f s total, %.2f bps image goodput\n",
		preview, res.TotalS, res.GoodputBPS)
	return nil
}

// runFig19 is the original batch contention mode.
func runFig19(w io.Writer, c *fig19) error {
	// One network per run: a receiver at the origin plus c.nTx
	// transmitters 5-10 m out (Fig 19's deployment).
	build := func() (*aquago.Network, []*aquago.Node, error) {
		net, err := aquago.NewNetwork(c.env, aquago.WithCSRange(c.csRange))
		if err != nil {
			return nil, nil, err
		}
		if _, err := net.Join(0, aquago.Position{X: 0, Z: 1}); err != nil {
			return nil, nil, err
		}
		tx := make([]*aquago.Node, c.nTx)
		for i := range tx {
			nd, err := net.Join(aquago.DeviceID(i+1),
				aquago.Position{X: 5 + 2.5*float64(i), Y: float64(i), Z: 1})
			if err != nil {
				return nil, nil, err
			}
			tx[i] = nd
		}
		return net, tx, nil
	}

	fmt.Fprintf(w, "MAC simulation: %d transmitters + 1 receiver, %d packets each, %s\n",
		c.nTx, c.packets, c.env.Name)
	fmt.Fprintf(w, "%-16s %12s %12s %10s\n", "mode", "collisions", "packets", "fraction")

	for _, cs := range []bool{false, true} {
		var fracSum float64
		var collided, total int
		for r := 0; r < c.runs; r++ {
			net, tx, err := build()
			if err != nil {
				return err
			}
			res := net.SimulateContention(tx, aquago.ContentionConfig{
				CarrierSense:  cs,
				PacketsPerTx:  c.packets,
				PreambleAware: c.preambleAware,
				Seed:          c.seed + int64(r)*7919,
			})
			fracSum += res.CollisionFraction
			for _, n := range res.PerNode {
				collided += n[0]
				total += n[1]
			}
		}
		mode := "no carrier sense"
		if cs {
			mode = "carrier sense"
		}
		fmt.Fprintf(w, "%-16s %12d %12d %9.1f%%\n", mode, collided, total, 100*fracSum/float64(c.runs))
	}
	return nil
}
