// Package fec implements the forward-error-correction chain of the
// AquaApp modem: the rate-1/2 constraint-length-7 convolutional code
// (generators 171/133 octal) punctured to rate 2/3, hard- and
// soft-decision Viterbi decoding, the paper's subcarrier interleaver,
// and a CRC-8 for explicit packet error detection.
package fec

import (
	"fmt"
	"math"
)

// Generator polynomials of the industry-standard K=7 code (octal
// 171/133), the pair the paper cites from GSM and satellite systems.
const (
	genG1 = 0o171 // 1 + D + D^2 + D^3 + D^6
	genG2 = 0o133 // 1 + D^2 + D^3 + D^5 + D^6
	// ConstraintLength is K: the encoder output depends on the current
	// and the K-1 previous input bits.
	ConstraintLength = 7
	numStates        = 1 << (ConstraintLength - 1) // 64
)

// Rate selects the code rate of a Codec.
type Rate int

const (
	// Rate12 is the unpunctured 1/2 mother code.
	Rate12 Rate = iota
	// Rate23 punctures the mother code with pattern [[1,1],[1,0]] to
	// rate 2/3 — the rate AquaApp uses (16 data bits -> 24 coded bits).
	Rate23
)

// String returns "1/2" or "2/3".
func (r Rate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	default:
		return "unknown"
	}
}

// puncture23 keeps mother-code bits in the repeating pattern
// c0 c1 c0 (drop the second c1 of every 2-input-bit group).
var puncture23 = []bool{true, true, true, false}

// Termination selects how the trellis is closed.
type Termination int

const (
	// Truncated appends nothing; the decoder picks the best-metric
	// end state. Cheapest, but the last K-1 information bits get
	// reduced protection.
	Truncated Termination = iota
	// Terminated appends K-1 zero tail bits; the decoder forces the
	// all-zero end state. Strongest, but inflates the coded length.
	Terminated
	// TailBiting initializes the encoder state from the final K-1
	// information bits so the trellis starts and ends in the same
	// state: uniform protection with no extra bits — AquaApp's
	// 16-bit payload encodes to exactly 24 coded bits.
	TailBiting
)

// String names the termination mode.
func (t Termination) String() string {
	switch t {
	case Truncated:
		return "truncated"
	case Terminated:
		return "terminated"
	case TailBiting:
		return "tail-biting"
	default:
		return "unknown"
	}
}

// Codec encodes and decodes one convolutional code configuration.
// NewCodec is the conventional constructor; the zero value is a
// truncated rate-1/2 codec.
type Codec struct {
	Rate        Rate
	Termination Termination

	// Trellis tables, built lazily: for prior state s and input bit b,
	// nextState[s][b] and output[s][b] (2 coded bits packed as c0<<1|c1).
	nextState [numStates][2]uint8
	output    [numStates][2]uint8
	built     bool
}

// NewCodec returns a codec with the given rate and termination mode.
func NewCodec(rate Rate, term Termination) *Codec {
	c := &Codec{Rate: rate, Termination: term}
	c.build()
	return c
}

func (c *Codec) build() {
	if c.built {
		return
	}
	for s := 0; s < numStates; s++ {
		for b := 0; b < 2; b++ {
			window := uint32(b)<<6 | uint32(s) // newest bit at bit 6
			c0 := parity7(window & genG1)
			c1 := parity7(window & genG2)
			c.output[s][b] = uint8(c0<<1 | c1)
			c.nextState[s][b] = uint8(window >> 1)
		}
	}
	c.built = true
}

func parity7(x uint32) uint32 {
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// CodedLen returns the number of coded bits Encode will produce for n
// information bits.
func (c *Codec) CodedLen(n int) int {
	if c.Termination == Terminated {
		n += ConstraintLength - 1
	}
	mother := 2 * n
	if c.Rate == Rate23 {
		// Keep 3 of every 4 mother bits; partial groups keep their
		// prefix of the pattern.
		kept := (mother / 4) * 3
		switch mother % 4 {
		case 1:
			kept++
		case 2:
			kept += 2
		case 3:
			kept += 3
		}
		return kept
	}
	return mother
}

// tailBitingState returns the encoder start state implied by the last
// K-1 information bits (with modular wraparound for short blocks).
func (c *Codec) tailBitingState(bits []int) uint8 {
	n := len(bits)
	if n == 0 {
		return 0
	}
	var state uint8
	// State bit layout: newest previous bit at bit 5 (see build).
	for i := 1; i <= ConstraintLength-1; i++ {
		idx := ((n-i)%n + n) % n
		if bits[idx] == 1 {
			state |= 1 << uint(ConstraintLength-1-i)
		}
	}
	return state
}

// Encode convolutionally encodes bits (values 0/1) and applies the
// codec's puncturing. The result length equals CodedLen(len(bits)).
func (c *Codec) Encode(bits []int) []int {
	c.build()
	for _, b := range bits {
		if b != 0 && b != 1 {
			panic(fmt.Sprintf("fec: bit value %d out of {0,1}", b))
		}
	}
	in := bits
	var state uint8
	switch c.Termination {
	case Terminated:
		in = make([]int, 0, len(bits)+ConstraintLength-1)
		in = append(in, bits...)
		for i := 0; i < ConstraintLength-1; i++ {
			in = append(in, 0)
		}
	case TailBiting:
		state = c.tailBitingState(bits)
	}
	mother := make([]int, 0, 2*len(in))
	for _, b := range in {
		out := c.output[state][b]
		mother = append(mother, int(out>>1), int(out&1))
		state = c.nextState[state][b]
	}
	if c.Rate == Rate12 {
		return mother
	}
	kept := make([]int, 0, c.CodedLen(len(bits)))
	for i, b := range mother {
		if puncture23[i%4] {
			kept = append(kept, b)
		}
	}
	return kept
}

// DecodeHard runs hard-decision Viterbi over received coded bits
// (0/1) and returns the maximum-likelihood information bits.
// n is the number of information bits expected; the received slice
// must have length CodedLen(n). Punctured positions are treated as
// erasures internally.
func (c *Codec) DecodeHard(received []int, n int) ([]int, error) {
	soft := make([]float64, len(received))
	for i, b := range received {
		switch b {
		case 0:
			soft[i] = 1 // bit 0 -> +1
		case 1:
			soft[i] = -1
		default:
			return nil, fmt.Errorf("fec: received bit %d out of {0,1}", b)
		}
	}
	return c.DecodeSoft(soft, n)
}

// DecodeSoft runs soft-decision Viterbi decoding. Each element of
// received is a confidence value for one coded bit with the mapping
// bit 0 -> positive, bit 1 -> negative; magnitude is reliability
// (e.g. the demodulator's correlation value). Length must equal
// CodedLen(n). Returns the n decoded information bits.
//
// Tail-biting decoding runs one constrained Viterbi pass per candidate
// start state (64 for K=7) and keeps the best self-consistent path —
// exact maximum-likelihood, affordable at AquaApp's 24-bit packets.
func (c *Codec) DecodeSoft(received []float64, n int) ([]int, error) {
	c.build()
	if want := c.CodedLen(n); len(received) != want {
		return nil, fmt.Errorf("fec: got %d coded values, want %d for %d info bits", len(received), want, n)
	}
	steps := n
	if c.Termination == Terminated {
		steps += ConstraintLength - 1
	}
	// Depuncture into per-step soft pairs; 0 marks an erasure.
	pairs := make([][2]float64, steps)
	idx := 0
	for step := 0; step < steps; step++ {
		for half := 0; half < 2; half++ {
			motherPos := step*2 + half
			keep := c.Rate == Rate12 || puncture23[motherPos%4]
			if keep && idx < len(received) {
				pairs[step][half] = received[idx]
				idx++
			} // else erasure: 0 contributes nothing
		}
	}

	switch c.Termination {
	case TailBiting:
		var bestBits []int
		bestMetric := math.Inf(1)
		for s0 := 0; s0 < numStates; s0++ {
			bits, m := c.viterbi(pairs, steps, s0, s0)
			if m < bestMetric {
				bestMetric = m
				bestBits = bits
			}
		}
		if bestBits == nil {
			return nil, fmt.Errorf("fec: tail-biting decode found no valid path")
		}
		return bestBits[:n], nil
	case Terminated:
		bits, _ := c.viterbi(pairs, steps, 0, 0)
		return bits[:n], nil
	default: // Truncated
		bits, _ := c.viterbi(pairs, steps, 0, -1)
		return bits[:n], nil
	}
}

// viterbi runs one Viterbi pass over depunctured soft pairs with the
// given start state; endState == -1 frees the end state (best metric
// wins). It returns the decoded inputs and the final path metric.
func (c *Codec) viterbi(pairs [][2]float64, steps, startState, endState int) ([]int, float64) {
	const inf = math.MaxFloat64 / 4
	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for s := range metric {
		metric[s] = inf
	}
	metric[startState] = 0
	survivor := make([][]uint8, steps)
	pred := make([][]uint8, steps)
	for i := range survivor {
		survivor[i] = make([]uint8, numStates)
		pred[i] = make([]uint8, numStates)
	}
	for step := 0; step < steps; step++ {
		for s := range next {
			next[s] = inf
		}
		r0, r1 := pairs[step][0], pairs[step][1]
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for b := 0; b < 2; b++ {
				out := c.output[s][b]
				// Branch metric: negative correlation with expected
				// signs (+1 for coded 0, -1 for coded 1); minimized.
				var bm float64
				if out&2 != 0 {
					bm += r0
				} else {
					bm -= r0
				}
				if out&1 != 0 {
					bm += r1
				} else {
					bm -= r1
				}
				ns := c.nextState[s][b]
				if cand := m + bm; cand < next[ns] {
					next[ns] = cand
					survivor[step][ns] = uint8(b)
					pred[step][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}
	best := endState
	if best < 0 {
		best = 0
		bestM := metric[0]
		for s := 1; s < numStates; s++ {
			if metric[s] < bestM {
				bestM = metric[s]
				best = s
			}
		}
	}
	decoded := make([]int, steps)
	state := uint8(best)
	for step := steps - 1; step >= 0; step-- {
		decoded[step] = int(survivor[step][state])
		state = pred[step][state]
	}
	return decoded, metric[best]
}
