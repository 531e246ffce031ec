package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"aquago"
)

func init() {
	register("mobility", Mobility)
}

// This file is the drifting-diver harness: the paper's protocol is
// evaluated with *channel* mobility (Fig 14 — Doppler and fading from
// a moving device), but until the motion layer (motion.go) landed,
// the network's geometry was frozen at Join. This harness measures
// what geometric motion costs the relay plane: a diver drifts along a
// fixed relay line while bulk-transferring a payload, and every
// position epoch (Network.AdvanceMotion between chunks) can strand
// the transfer's first hop out of earshot — forcing either an
// in-flight route splice (SendBulkVia's route maintenance) or a fresh
// route per chunk (the pipelined variant, whose path is fixed at
// launch). Goodput and route-repair count versus drift speed is the
// headline.

// maxDriftSpeedMS bounds the diver's drift: the paper bounds safe
// diver motion at 1-2 m/s, so anything past 5 m/s is a boat, not a
// diver.
const maxDriftSpeedMS = 5

// diverLeadFrac places the diver's start this fraction of a spacing
// *before* the first line node, so the initial route enters the line
// at node 0 and the drift can only shorten it.
const diverLeadFrac = 0.4

// MobilityPoint parameterizes one drifting-diver bulk transfer: a
// line of Hops relay nodes SpacingM apart, plus a diver (the source)
// starting just before the line and drifting along it at DriftSpeedMS
// toward the destination — the far end of the line. The payload
// transfers in ChunkBytes chunks, with one motion epoch
// (AdvanceMotion) between chunks, so the route from the diver decays
// and repairs as it drifts.
type MobilityPoint struct {
	// Hops is the initial relay path length: Hops line nodes, so the
	// route diver -> line start -> ... -> line end is Hops hops.
	Hops int
	// SpacingM separates adjacent line nodes (default relaySpacingM).
	SpacingM float64
	// CSRangeM bounds audibility; 0 derives 1.2 * SpacingM so exactly
	// the adjacent line nodes hear each other.
	CSRangeM float64
	// PayloadBytes sizes the whole bulk payload.
	PayloadBytes int
	// ChunkBytes sizes each chunk transfer (default 8); one motion
	// epoch applies between chunks.
	ChunkBytes int
	// DriftSpeedMS is the diver's drift speed along the line in m/s
	// (0 = static baseline; the geometry never changes). The same
	// speed feeds the channel's Doppler/fading model (WithNodeMotion),
	// so physics and geometry agree.
	DriftSpeedMS float64
	// Pipelined runs each chunk through the async transmit subsystem
	// (SendBulkViaPipelined). A pipelined path is fixed at launch, so
	// route repair happens *between* chunks (a fresh route per chunk)
	// instead of mid-transfer.
	Pipelined bool
	// Seed drives channels, MAC backoffs and the payload bytes.
	Seed int64
	// Env is the deployment site (zero value = Bridge).
	Env aquago.Environment
	// Workers sizes the network's scheduler pool (results are
	// worker-count independent — the mobility determinism test pins
	// this).
	Workers int
}

// withDefaults resolves the derived knobs.
func (p MobilityPoint) withDefaults() MobilityPoint {
	if p.SpacingM == 0 {
		p.SpacingM = relaySpacingM
	}
	if p.CSRangeM == 0 {
		p.CSRangeM = 1.2 * p.SpacingM
	}
	if p.ChunkBytes == 0 {
		p.ChunkBytes = 8
	}
	return p
}

// Validate rejects parameter combinations that cannot run;
// cmd/aquanet mobility surfaces these to users.
func (p MobilityPoint) Validate() error {
	p = p.withDefaults()
	switch {
	case p.Hops < 2:
		return fmt.Errorf("mobility: need at least two hops so the drift can shorten the route, got %d", p.Hops)
	case p.Hops > 59:
		return fmt.Errorf("mobility: %d hops need %d nodes, over the 60-device limit", p.Hops, p.Hops+1)
	case math.IsNaN(p.SpacingM) || math.IsInf(p.SpacingM, 0) || p.SpacingM <= 0:
		return fmt.Errorf("mobility: node spacing %v m is not a usable distance", p.SpacingM)
	case math.IsNaN(p.CSRangeM) || math.IsInf(p.CSRangeM, 0) || p.CSRangeM < 0:
		return fmt.Errorf("mobility: carrier-sense range %v m is not a usable distance", p.CSRangeM)
	case p.CSRangeM < p.SpacingM:
		return fmt.Errorf("mobility: carrier-sense range %g m below the %g m spacing leaves adjacent nodes deaf — no route exists", p.CSRangeM, p.SpacingM)
	case p.PayloadBytes < 1:
		return fmt.Errorf("mobility: need a payload, got %d bytes", p.PayloadBytes)
	case p.PayloadBytes > maxBulkBytes:
		return fmt.Errorf("mobility: %d payload bytes exceed the %d cap", p.PayloadBytes, maxBulkBytes)
	case p.ChunkBytes < 2:
		return fmt.Errorf("mobility: a chunk needs at least one 2-byte packet, got %d bytes", p.ChunkBytes)
	case math.IsNaN(p.DriftSpeedMS) || math.IsInf(p.DriftSpeedMS, 0) || p.DriftSpeedMS < 0:
		return fmt.Errorf("mobility: drift speed %v m/s is not usable", p.DriftSpeedMS)
	case p.DriftSpeedMS > maxDriftSpeedMS:
		return fmt.Errorf("mobility: drift speed %g m/s exceeds the %d m/s diver bound", p.DriftSpeedMS, maxDriftSpeedMS)
	}
	return nil
}

// MobilityResult reports one drifting-diver transfer. Every field is
// a deterministic function of the point — the transfer, the motion
// epochs and the route repairs all live on the virtual timeline, so
// no worker count or wall-clock interleaving can leak in
// (DeterministicKey digests them for the cross-worker golden).
type MobilityResult struct {
	// InitialHops / FinalHops bound the route's decay: the first
	// chunk's path length versus the last path walked (the drift
	// shortens the route as the diver overtakes its own relays).
	InitialHops, FinalHops int
	// Chunks counts chunk transfers (one motion epoch between each).
	Chunks int
	// Packets / DeliveredPackets / DeliveredBytes total the protocol
	// packets and payload bytes across chunks.
	Packets, DeliveredPackets, DeliveredBytes int
	// Attempts totals physical transmissions; Retries the relay
	// layer's retransmissions under the bulk retry budget.
	Attempts, Retries int
	// Reroutes counts route repairs: mid-transfer path splices
	// (sequential — BulkResult.Reroutes) plus between-chunk route
	// changes (pipelined — a fresh route that differs from the
	// previous chunk's path). Zero when the diver is static.
	Reroutes int
	// Epochs is how many position epochs the network applied
	// (Network.MotionEpochs after the transfer).
	Epochs uint64
	// LatencyS spans the first chunk's start to the last delivered
	// packet's final sample at the destination; GoodputBPS the
	// delivered payload bits over it.
	LatencyS, GoodputBPS float64
	// Failed marks a transfer a relay hop killed (its retry budget
	// spent, or no route left): the point stopped at that chunk and
	// reports what was delivered before it.
	Failed bool
}

// DeterministicKey digests the worker-count-independent fields; runs
// of the same point must produce equal keys for any Workers value.
func (r MobilityResult) DeterministicKey() string {
	return fmt.Sprintf("hops=%d->%d chunks=%d pkts=%d/%d bytes=%d attempts=%d retries=%d reroutes=%d epochs=%d latency=%.9f goodput=%.9f failed=%t",
		r.InitialHops, r.FinalHops, r.Chunks, r.DeliveredPackets, r.Packets,
		r.DeliveredBytes, r.Attempts, r.Retries, r.Reroutes, r.Epochs,
		r.LatencyS, r.GoodputBPS, r.Failed)
}

// RunMobilityPoint drifts the diver down the relay line while bulk
// transferring, and measures what the motion cost. A relay failure is
// an outcome, not an error: the result is marked Failed and covers the
// chunks up to and including the one that died.
func RunMobilityPoint(p MobilityPoint) (MobilityResult, error) {
	if err := p.Validate(); err != nil {
		return MobilityResult{}, err
	}
	p = p.withDefaults()
	env := p.Env
	if env.Name == "" {
		env = aquago.Bridge
	}
	net, err := aquago.NewNetwork(env,
		aquago.WithNetworkSeed(p.Seed),
		aquago.WithCSRange(p.CSRangeM),
		aquago.WithNetworkWorkers(p.Workers),
	)
	if err != nil {
		return MobilityResult{}, err
	}
	// The fixed line: nodes 1..Hops at X = 0, SpacingM, ...,
	// (Hops-1)*SpacingM; the last is the destination.
	for i := 1; i <= p.Hops; i++ {
		if _, err := net.Join(aquago.DeviceID(i),
			aquago.Position{X: float64(i-1) * p.SpacingM, Z: 1},
			aquago.WithNodeClock(0)); err != nil {
			return MobilityResult{}, err
		}
	}
	// The diver: starts diverLeadFrac of a spacing before the line
	// and drifts toward the destination, stopping one spacing short
	// of it — close enough that the final route is a single hop. The
	// track feeds the geometry; the matched WithNodeMotion feeds the
	// channel's Doppler/fading model.
	start := aquago.Position{X: -diverLeadFrac * p.SpacingM, Z: 1}
	diverOpts := []aquago.NodeOption{aquago.WithNodeClock(0)}
	if p.DriftSpeedMS > 0 {
		driftM := float64(p.Hops-1) * p.SpacingM
		diverOpts = append(diverOpts,
			aquago.WithNodeMotion(aquago.Motion{SpeedMS: p.DriftSpeedMS}),
			aquago.WithMotionTrack(aquago.DriftTrack(start, p.DriftSpeedMS, 0, 0, driftM/p.DriftSpeedMS)))
	}
	if _, err := net.Join(0, start, diverOpts...); err != nil {
		return MobilityResult{}, err
	}

	payload := make([]byte, p.PayloadBytes)
	rand.New(rand.NewSource(p.Seed*7351 + 11)).Read(payload)
	dst := aquago.DeviceID(p.Hops)
	send := net.SendBulkVia
	if p.Pipelined {
		send = net.SendBulkViaPipelined
	}

	var res MobilityResult
	var path []aquago.DeviceID
	var startS, endS float64
	ctx := context.Background()
	for off := 0; off < len(payload); off += p.ChunkBytes {
		chunkEnd := off + p.ChunkBytes
		if chunkEnd > len(payload) {
			chunkEnd = len(payload)
		}
		// Sequential chunks reuse the previous chunk's path as last
		// walked, leaving repair to SendBulkVia's in-flight route
		// maintenance; pipelined paths are fixed at launch, so each
		// chunk routes fresh and a changed route counts as the repair.
		if p.Pipelined || path == nil {
			fresh, err := net.Route(0, dst)
			if err != nil {
				return res, fmt.Errorf("mobility: routing chunk at byte %d: %w", off, err)
			}
			if path != nil && !slices.Equal(fresh, path) {
				res.Reroutes++
			}
			path = fresh
		}
		if res.Chunks == 0 {
			res.InitialHops = len(path) - 1
		}
		out, err := send(ctx, path, payload[off:chunkEnd])
		res.Chunks++
		res.Packets += out.Packets
		res.DeliveredPackets += out.DeliveredPackets
		res.DeliveredBytes += out.DeliveredBytes
		res.Attempts += out.Attempts
		res.Retries += out.Retries
		res.Reroutes += out.Reroutes
		var relayErr *aquago.RelayError
		if err != nil && !errors.As(err, &relayErr) {
			return res, fmt.Errorf("mobility: chunk at byte %d: %w", off, err)
		}
		if res.Chunks == 1 {
			startS = out.StartS
		}
		if out.DeliveredPackets > 0 {
			endS = out.EndS
		}
		path = out.Path
		if err != nil {
			res.Failed = true
			break
		}
		// One position epoch per chunk boundary: the diver is wherever
		// its track says it is when the chunk's last sample landed.
		if _, err := net.AdvanceMotion(endS); err != nil {
			return res, fmt.Errorf("mobility: motion epoch at %.2fs: %w", endS, err)
		}
	}
	res.FinalHops = len(path) - 1
	res.Epochs = net.MotionEpochs()
	res.LatencyS = endS - startS
	if res.LatencyS > 0 {
		res.GoodputBPS = 8 * float64(res.DeliveredBytes) / res.LatencyS
	}
	return res, nil
}

// mobilitySweep parameterizes the harness; the exp tests run reduced
// points directly.
type mobilitySweep struct {
	// hops is the initial relay path length.
	hops int
	// payloadBytes / chunkBytes size the transfer and its chunks.
	payloadBytes, chunkBytes int
	// speeds lists the drift speeds (m/s) to sweep; include 0 so the
	// static baseline anchors every series.
	speeds []float64
}

func defaultMobilitySweep(quick bool) mobilitySweep {
	if quick {
		return mobilitySweep{
			hops:         4,
			payloadBytes: 24,
			chunkBytes:   4,
			speeds:       []float64{0, 0.5, 2},
		}
	}
	return mobilitySweep{
		hops:         6,
		payloadBytes: 48,
		chunkBytes:   4,
		speeds:       []float64{0, 0.25, 0.5, 1, 2},
	}
}

// Mobility is the drifting-diver harness: bulk relay goodput and
// route-repair count versus drift speed, sequential (in-flight route
// splices) and pipelined (fresh route per chunk).
func Mobility(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	return mobilityReport(cfg, defaultMobilitySweep(cfg.Quick))
}

// mobilityReport runs the sweep on the experiment worker pool.
func mobilityReport(cfg RunConfig, sw mobilitySweep) (Report, error) {
	rep := Report{
		ID:    "mobility",
		Title: "Drifting diver: bulk relay goodput and route repairs vs drift speed",
	}
	type coord struct {
		speed     float64
		pipelined bool
	}
	var coords []coord
	for _, v := range sw.speeds {
		coords = append(coords, coord{v, false})
	}
	for _, v := range sw.speeds {
		coords = append(coords, coord{v, true})
	}
	results, err := parallelMap(cfg.Workers, len(coords), func(i int) (MobilityResult, error) {
		c := coords[i]
		return RunMobilityPoint(MobilityPoint{
			Hops:         sw.hops,
			PayloadBytes: sw.payloadBytes,
			ChunkBytes:   sw.chunkBytes,
			DriftSpeedMS: c.speed,
			Seed:         cfg.Seed + int64(i)*5407,
			Pipelined:    c.pipelined,
		})
	})
	if err != nil {
		return rep, err
	}
	for _, pipe := range []bool{false, true} {
		label := "sequential"
		if pipe {
			label = "pipelined"
		}
		good := Series{Name: fmt.Sprintf("drifting-diver goodput vs drift speed (%s)", label),
			XLabel: "drift m/s", YLabel: "goodput bps"}
		repairs := Series{Name: fmt.Sprintf("route repairs vs drift speed (%s)", label),
			XLabel: "drift m/s", YLabel: "reroutes"}
		var static, fastest MobilityResult
		var fastestV float64
		var failed []string
		for i, c := range coords {
			if c.pipelined != pipe {
				continue
			}
			r := results[i]
			good.X = append(good.X, c.speed)
			good.Y = append(good.Y, r.GoodputBPS)
			repairs.X = append(repairs.X, c.speed)
			repairs.Y = append(repairs.Y, float64(r.Reroutes))
			if c.speed == 0 {
				static = r
			}
			if c.speed >= fastestV {
				fastestV, fastest = c.speed, r
			}
			if r.Failed {
				failed = append(failed, fmt.Sprintf("%g m/s (%d/%d pkts)", c.speed, r.DeliveredPackets, r.Packets))
			}
		}
		rep.Series = append(rep.Series, good, repairs)
		note := fmt.Sprintf(
			"%s (%d B over %d hops): static %.1f bps -> %.2g m/s %.1f bps, %d route repair(s) over %d epoch(s), route %d -> %d hops",
			label, sw.payloadBytes, sw.hops, static.GoodputBPS,
			fastestV, fastest.GoodputBPS, fastest.Reroutes, fastest.Epochs,
			fastest.InitialHops, fastest.FinalHops)
		if len(failed) > 0 {
			note += "; relay failed at " + strings.Join(failed, ", ")
		}
		rep.Notes = append(rep.Notes, note)
	}
	return rep, nil
}
