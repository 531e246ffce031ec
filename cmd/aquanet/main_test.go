package main

import (
	"math"
	"strings"
	"testing"

	"aquago"
)

func TestValidateFlags(t *testing.T) {
	type args struct {
		nTx, packets, runs int
		seed               int64
		csRange            float64
	}
	good := args{nTx: 3, packets: 120, runs: 5, seed: 1, csRange: 0}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"max transmitters", func(a *args) { a.nTx = 59 }, ""},
		{"finite csrange", func(a *args) { a.csRange = 12.5 }, ""},
		{"zero transmitters", func(a *args) { a.nTx = 0 }, "at least one transmitter"},
		{"negative transmitters", func(a *args) { a.nTx = -2 }, "at least one transmitter"},
		{"too many transmitters", func(a *args) { a.nTx = 60 }, "59 transmitters"},
		{"zero packets", func(a *args) { a.packets = 0 }, "at least one packet"},
		{"zero runs", func(a *args) { a.runs = 0 }, "at least one run"},
		{"NaN csrange", func(a *args) { a.csRange = math.NaN() }, "not a finite distance"},
		{"infinite csrange", func(a *args) { a.csRange = math.Inf(1) }, "not a finite distance"},
		{"negative csrange", func(a *args) { a.csRange = -5 }, "cannot be negative"},
		{"negative seed", func(a *args) { a.seed = -1 }, "out of range"},
		{"huge seed", func(a *args) { a.seed = math.MaxInt64 }, "out of range"},
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		err := validateFlags(a.nTx, a.packets, a.runs, a.seed, a.csRange)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestBuildLoadPoint covers the -load flag error paths: nonsense
// rates, node counts, durations, modes and worker budgets must be
// rejected with a message naming the offending flag or limit, and a
// good flag set must map onto the harness point verbatim.
func TestBuildLoadPoint(t *testing.T) {
	type args struct {
		nodes         int
		rate, dur     float64
		mode          string
		noCS          bool
		preambleAware bool
		workers       int
		seed          int64
		csRange       float64
	}
	good := args{nodes: 8, rate: 0.05, dur: 120, mode: "envelope", seed: 1}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"waveform mode", func(a *args) { a.mode = "waveform" }, ""},
		{"max nodes", func(a *args) { a.nodes = 60 }, ""},
		{"no carrier sense", func(a *args) { a.noCS = true }, ""},
		{"one node", func(a *args) { a.nodes = 1 }, "at least 2 nodes"},
		{"over 60 nodes", func(a *args) { a.nodes = 61 }, "60-device network limit"},
		{"negative rate", func(a *args) { a.rate = -0.1 }, "must be positive"},
		{"NaN rate", func(a *args) { a.rate = math.NaN() }, "not a finite number"},
		{"infinite rate", func(a *args) { a.rate = math.Inf(1) }, "not a finite number"},
		{"zero duration", func(a *args) { a.dur = 0 }, "must be positive"},
		{"negative duration", func(a *args) { a.dur = -5 }, "must be positive"},
		{"NaN duration", func(a *args) { a.dur = math.NaN() }, "not a finite time"},
		{"runaway schedule", func(a *args) { a.rate = 500; a.dur = 1e6 }, "cap"},
		{"bad mode", func(a *args) { a.mode = "acoustic" }, "pick envelope or waveform"},
		{"negative workers", func(a *args) { a.workers = -2 }, "-workers"},
		{"negative seed", func(a *args) { a.seed = -1 }, "out of range"},
		{"NaN csrange", func(a *args) { a.csRange = math.NaN() }, "not a finite distance"},
		{"negative csrange", func(a *args) { a.csRange = -3 }, "cannot be negative"},
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		pt, err := buildLoadPoint(a.nodes, a.rate, a.dur, a.mode, a.noCS, a.preambleAware,
			a.workers, a.seed, a.csRange, aquago.Bridge)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "":
			if pt.PodSize != a.nodes || pt.Pods != 1 || pt.RateHz != a.rate ||
				pt.DurationS != a.dur || pt.CarrierSense == a.noCS {
				t.Errorf("%s: flags did not map onto the point: %+v", tc.name, pt)
			}
		}
	}
}

// TestBuildScalePoint covers the -scale flag error paths, funneled
// through the scale harness point's own Validate so CLI and harness
// cannot drift apart on what is buildable.
func TestBuildScalePoint(t *testing.T) {
	type args struct {
		podsX, podsY, podSize, msgs, workers int
		seed                                 int64
		csRange                              float64
	}
	good := args{podsX: 5, podsY: 5, podSize: 10, msgs: 8, seed: 1}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"csrange 0 maps to harness default", func(a *args) { a.csRange = 0 }, ""},
		{"explicit csrange", func(a *args) { a.csRange = 40 }, ""},
		{"max pod size", func(a *args) { a.podSize = 15 }, ""},
		{"one pod column", func(a *args) { a.podsX = 1 }, "at least two pod columns"},
		{"zero pod rows", func(a *args) { a.podsY = 0 }, "at least one pod row"},
		{"zero pod size", func(a *args) { a.podSize = 0 }, "outside 1..15"},
		{"oversized pod", func(a *args) { a.podSize = 16 }, "outside 1..15"},
		{"too many nodes", func(a *args) { a.podsX = 40; a.podsY = 40 }, "harness cap"},
		{"zero messages is the default", func(a *args) { a.msgs = 0 }, ""},
		{"too many messages", func(a *args) { a.msgs = 5000 }, "outside 1.."},
		{"negative workers", func(a *args) { a.workers = -1 }, "-workers"},
		{"negative seed", func(a *args) { a.seed = -1 }, "out of range"},
		{"NaN csrange", func(a *args) { a.csRange = math.NaN() }, "not a finite distance"},
		{"negative csrange", func(a *args) { a.csRange = -3 }, "cannot be negative"},
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		pt, err := buildScalePoint(a.podsX, a.podsY, a.podSize, a.msgs, a.workers,
			a.seed, a.csRange, aquago.Bridge)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "":
			if pt.PodsX != a.podsX || pt.PodsY != a.podsY || pt.PodSize != a.podSize ||
				pt.Msgs != a.msgs || pt.Retries != -1 {
				t.Errorf("%s: flags did not map onto the point: %+v", tc.name, pt)
			}
		}
	}
}

// TestBuildStreamPoint covers the -stream flag error paths, funneled
// through the stream harness point's own Validate so CLI and harness
// cannot drift apart on what is runnable.
func TestBuildStreamPoint(t *testing.T) {
	type args struct {
		rangeM  float64
		bytes   int
		window  int
		retries int
		rto     float64
		mode    string
		workers int
		seed    int64
	}
	good := args{rangeM: 25, bytes: 32, retries: 4, mode: "envelope", seed: 1}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"waveform mode", func(a *args) { a.mode = "waveform" }, ""},
		{"max window", func(a *args) { a.window = aquago.MaxStreamWindow }, ""},
		{"explicit rto", func(a *args) { a.rto = 0.5 }, ""},
		{"NaN range", func(a *args) { a.rangeM = math.NaN() }, "not a usable distance"},
		{"negative range", func(a *args) { a.rangeM = -5 }, "not a usable distance"},
		{"no payload", func(a *args) { a.bytes = 0 }, "need a payload"},
		{"huge payload", func(a *args) { a.bytes = 1 << 20 }, "cap"},
		{"bad window", func(a *args) { a.window = -1 }, "window"},
		{"oversized window", func(a *args) { a.window = aquago.MaxStreamWindow + 1 }, "window"},
		{"zero retries", func(a *args) { a.retries = 0 }, "at least 1"},
		{"NaN timer", func(a *args) { a.rto = math.NaN() }, "not a usable duration"},
		{"negative timer", func(a *args) { a.rto = -2 }, "not a usable duration"},
		{"bad mode", func(a *args) { a.mode = "sonar" }, "pick envelope or waveform"},
		{"negative workers", func(a *args) { a.workers = -1 }, "-workers"},
		{"negative seed", func(a *args) { a.seed = -1 }, "out of range"},
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		pt, err := buildStreamPoint(a.rangeM, a.bytes, a.window, a.retries, a.rto,
			a.mode, a.workers, a.seed, aquago.Bridge)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "":
			if pt.RangeM != a.rangeM || pt.Bytes != a.bytes || pt.Window != a.window ||
				pt.Retries != a.retries || pt.RTOS != a.rto {
				t.Errorf("%s: flags did not map onto the point: %+v", tc.name, pt)
			}
		}
	}
}

// TestBuildImagePoint covers the -image flag error paths, including
// the hops/streams axis clash only the CLI can produce.
func TestBuildImagePoint(t *testing.T) {
	type args struct {
		blocks, blockSize, preview int
		hops, streams              int
		rangeM                     float64
		window, retries            int
		rto                        float64
		mode                       string
		workers                    int
		seed                       int64
	}
	good := args{blocks: 16, blockSize: 7, hops: 1, streams: 1,
		rangeM: 25, retries: 4, mode: "envelope", seed: 1}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"relay axis", func(a *args) { a.hops = 3 }, ""},
		{"load axis", func(a *args) { a.streams = 3 }, ""},
		{"explicit preview", func(a *args) { a.preview = 2 }, ""},
		{"no blocks", func(a *args) { a.blocks = 0 }, "at least one block"},
		{"empty blocks", func(a *args) { a.blockSize = 0 }, "at least one byte"},
		{"huge image", func(a *args) { a.blocks = 2048; a.blockSize = 7 }, "cap"},
		{"preview past end", func(a *args) { a.preview = 17 }, "preview threshold"},
		{"too many hops", func(a *args) { a.hops = 60 }, "60-device limit"},
		{"hops and streams", func(a *args) { a.hops = 3; a.streams = 2 }, "direct links"},
		{"too many streams", func(a *args) { a.streams = 9 }, "outside [1, 8]"},
		{"bad window", func(a *args) { a.window = aquago.MaxStreamWindow + 1 }, "window"},
		{"zero retries", func(a *args) { a.retries = 0 }, "at least 1"},
		{"NaN timer", func(a *args) { a.rto = math.NaN() }, "not a usable duration"},
		{"bad mode", func(a *args) { a.mode = "sonar" }, "pick envelope or waveform"},
		{"negative workers", func(a *args) { a.workers = -3 }, "-workers"},
		{"negative seed", func(a *args) { a.seed = -1 }, "out of range"},
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		pt, err := buildImagePoint(a.blocks, a.blockSize, a.preview, a.hops, a.streams,
			a.rangeM, a.window, a.retries, a.rto, a.mode, a.workers, a.seed, aquago.Bridge)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "":
			if pt.Blocks != a.blocks || pt.BlockBytes != a.blockSize ||
				pt.Hops != a.hops || pt.Streams != a.streams || pt.Retries != a.retries {
				t.Errorf("%s: flags did not map onto the point: %+v", tc.name, pt)
			}
		}
	}
}

// TestBuildRelayPoint covers the -relay flag error paths, funneled
// through the multihop harness point's own Validate so CLI and
// harness cannot drift apart on what is runnable.
func TestBuildRelayPoint(t *testing.T) {
	type args struct {
		hops      int
		spacing   float64
		bulk      int
		mode      string
		policy    string
		pipelined bool
		persist   float64
		adaptive  bool
		seed      int64
		csRange   float64
	}
	good := args{hops: 3, spacing: 25, bulk: 32, mode: "envelope", policy: "minhop", seed: 1}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr string
	}{
		{"defaults", func(*args) {}, ""},
		{"waveform etx", func(a *args) { a.mode = "waveform"; a.policy = "minetx" }, ""},
		{"explicit csrange", func(a *args) { a.csRange = 40 }, ""},
		{"zero hops", func(a *args) { a.hops = 0 }, "at least one hop"},
		{"too many hops", func(a *args) { a.hops = 60 }, "60-device limit"},
		{"NaN spacing", func(a *args) { a.spacing = math.NaN() }, "not a usable distance"},
		{"negative spacing", func(a *args) { a.spacing = -2 }, "not a usable distance"},
		{"deaf csrange", func(a *args) { a.csRange = 10 }, "no route exists"},
		{"zero payload", func(a *args) { a.bulk = 0 }, "need a payload"},
		{"huge payload", func(a *args) { a.bulk = 1 << 20 }, "cap"},
		{"bad mode", func(a *args) { a.mode = "sonar" }, "pick envelope or waveform"},
		{"bad policy", func(a *args) { a.policy = "hottest-gossip" }, "pick minhop or minetx"},
		{"pipelined defaults", func(a *args) { a.pipelined = true }, ""},
		{"pipelined persistent adaptive", func(a *args) {
			a.pipelined = true
			a.persist = 0.7
			a.adaptive = true
		}, ""},
		{"NaN persist", func(a *args) { a.persist = math.NaN() }, "persistence"},
		{"negative persist", func(a *args) { a.persist = -0.2 }, "persistence"},
		{"persist above one", func(a *args) { a.persist = 1.5 }, "persistence"},
		{"negative seed", func(a *args) { a.seed = -1 }, "out of range"},
		{"negative csrange", func(a *args) { a.csRange = -3 }, "cannot be negative"},
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		pt, err := buildRelayPoint(a.hops, a.spacing, a.bulk, a.mode, a.policy,
			a.pipelined, a.persist, a.adaptive, a.seed, a.csRange, aquago.Bridge)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "":
			if pt.Hops != a.hops || pt.SpacingM != a.spacing || pt.PayloadBytes != a.bulk ||
				pt.Retries != -1 {
				t.Errorf("%s: flags did not map onto the point: %+v", tc.name, pt)
			}
			if pt.Pipelined != a.pipelined || pt.Persist != a.persist || pt.AdaptiveBackoff != a.adaptive {
				t.Errorf("%s: pipelined flags did not map onto the point: %+v", tc.name, pt)
			}
		}
	}
}
