package phy

import "aquago/internal/modem"

// Stage identifies one step of the adaptive packet exchange (Fig 5 of
// the paper). Stages fire in order; a failed stage suppresses the
// ones after it (a lost preamble never reaches the SNR estimate).
type Stage uint8

const (
	// StagePreamble is Bob's two-stage preamble detection plus the
	// header ID-tone check.
	StagePreamble Stage = iota
	// StageSNR is Bob's per-subcarrier SNR estimate from the preamble.
	StageSNR
	// StageBand is Bob's frequency band selection (Algorithm 1).
	StageBand
	// StageFeedback is the two-tone feedback symbol: Bob encodes his
	// band choice, Alice decodes what she transmits on.
	StageFeedback
	// StageData is the training + data section decode.
	StageData
	// StageACK is Bob's single-tone acknowledgment.
	StageACK
)

// String names the stage for logs.
func (s Stage) String() string {
	switch s {
	case StagePreamble:
		return "preamble"
	case StageSNR:
		return "snr"
	case StageBand:
		return "band"
	case StageFeedback:
		return "feedback"
	case StageData:
		return "data"
	case StageACK:
		return "ack"
	}
	return "unknown"
}

// StageEvent is one per-stage observation delivered to a stage hook.
// Hooks run synchronously inside Exchange; they must be fast and must
// not call back into the protocol or its medium.
type StageEvent struct {
	// Stage identifies the protocol step.
	Stage Stage
	// AtS is the virtual time at which the stage concluded.
	AtS float64
	// OK reports stage success (detection fired, band found, payload
	// decoded, ACK heard, ...).
	OK bool
	// Metric is the stage's scalar diagnostic: the sliding-correlation
	// peak for StagePreamble, the mean subcarrier SNR in dB for
	// StageSNR, zero elsewhere.
	Metric float64
	// Band is the band involved in StageBand (Bob's choice),
	// StageFeedback (what Alice decoded) and StageData (decode band).
	Band modem.Band
	// SNRdB is the per-subcarrier estimate (StageSNR only). The slice
	// is shared with the protocol result; copy it before retaining.
	SNRdB []float64
	// BitErrors is the post-Viterbi payload error count (StageData).
	BitErrors int

	// Relay context. The protocol itself never sets these: the network's
	// relay layer stamps them onto every event of a hop's exchange, so a
	// trace can follow a message down a multi-hop path. Hop is the
	// zero-based hop whose exchange emitted the event and PathHops the
	// path's total hop count (both zero for a plain single-hop Send —
	// a relayed transfer always has PathHops >= 1). BulkPkt/BulkPkts
	// locate the event inside a bulk transfer's packet sequence the same
	// way (BulkPkts is zero outside Node.SendBulk).
	Hop      int
	PathHops int
	BulkPkt  int
	BulkPkts int

	// TxID tags every event of a network send's exchanges with its
	// transmit job's ID (every send, blocking ones included, is a
	// queued job), stamped by the network's transmit daemon the same
	// way the relay layer stamps the hop context. Zero outside a
	// network (a bare Session or Protocol).
	TxID uint64
}

// SetStageHook installs (or, with nil, removes) the per-stage
// callback. Telemetry and tests consume the same hook the public
// Trace interface wraps.
func (p *Protocol) SetStageHook(hook func(StageEvent)) { p.opts.OnStage = hook }

// emit delivers a stage event to the installed hook, if any.
func (p *Protocol) emit(ev StageEvent) {
	if p.opts.OnStage != nil {
		p.opts.OnStage(ev)
	}
}
