package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aquago"
	"aquago/internal/exp"
)

// runArgs drives one invocation through run, returning its exit status
// and what it wrote to stdout and stderr.
func runArgs(args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestValidateFlags covers the bare Fig 19 mode's flag checks: counts
// are its own, seed and csrange the shared check's. Only parse runs,
// so the valid cases cost nothing.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		args    string
		wantErr string
	}{
		{"", ""},
		{"-tx 59", ""},
		{"-csrange 12.5", ""},
		{"-tx 0", "at least one transmitter"},
		{"-tx -2", "at least one transmitter"},
		{"-tx 60", "59 transmitters"},
		{"-packets 0", "at least one packet"},
		{"-runs 0", "at least one run"},
		{"-csrange NaN", "not a finite distance"},
		{"-csrange +Inf", "not a finite distance"},
		{"-csrange -5", "cannot be negative"},
		{"-seed -1", "out of range"},
		{"-seed 9223372036854775807", "out of range"},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		j, code := parse(strings.Fields(tc.args), &stderr)
		switch {
		case tc.wantErr == "" && (j == nil || code != 0):
			t.Errorf("%q: exit %d, %s", tc.args, code, stderr.String())
		case tc.wantErr != "" && (j != nil || code != 1):
			t.Errorf("%q: exit %d, want 1", tc.args, code)
		case !strings.Contains(stderr.String(), tc.wantErr):
			t.Errorf("%q: stderr %q does not mention %q", tc.args, stderr.String(), tc.wantErr)
		}
	}
}

// A flagCase is one invocation of a harness. With err empty the args
// must bind the harness's default point with set applied (nil set:
// the default itself); otherwise parse must exit with code and name
// err on stderr.
type flagCase[P any] struct {
	args string
	set  func(*P)
	code int
	err  string
}

// checkFlags parses each case's args after the harness name. Only
// parse runs, so valid points cost nothing. Range checks on the point
// fields also live in internal/exp's Test*Validate tests.
func checkFlags[P any](t *testing.T, harness string, def P, cases []flagCase[P]) {
	t.Helper()
	for _, tc := range cases {
		args := strings.TrimSpace(harness + " " + tc.args)
		var stderr bytes.Buffer
		j, code := parse(strings.Fields(args), &stderr)
		if tc.err != "" {
			if j != nil || code != tc.code {
				t.Errorf("%q: exit %d, want %d", args, code, tc.code)
			}
			if !strings.Contains(stderr.String(), tc.err) {
				t.Errorf("%q: stderr %q does not mention %q", args, stderr.String(), tc.err)
			}
			continue
		}
		if j == nil {
			t.Errorf("%q: exit %d, %s", args, code, stderr.String())
			continue
		}
		want := def
		if tc.set != nil {
			tc.set(&want)
		}
		if !reflect.DeepEqual(j.point, &want) {
			t.Errorf("%q: point\n got %+v\nwant %+v", args, j.point, &want)
		}
	}
}

// TestBuildLoadPoint covers the load flags: they land on the point's
// fields, and nonsense rates, node counts, durations, modes and worker
// budgets are rejected naming the offending flag or limit.
func TestBuildLoadPoint(t *testing.T) {
	def := exp.MacLoadPoint{Pods: 1, PodSize: 8, RateHz: 0.05, DurationS: 120,
		CarrierSense: true, Seed: 1, Env: aquago.Bridge}
	checkFlags(t, "load", def, []flagCase[exp.MacLoadPoint]{
		{args: ""},
		{args: "-mode waveform", set: func(p *exp.MacLoadPoint) { p.Mode = aquago.WaveformContention }},
		{args: "-nodes 60", set: func(p *exp.MacLoadPoint) { p.PodSize = 60 }},
		{args: "-no-cs", set: func(p *exp.MacLoadPoint) { p.CarrierSense = false }},
		{args: "-nodes 12 -no-cs -preamble-aware -mode waveform -workers 2 -csrange 40 -env lake -seed 7",
			set: func(p *exp.MacLoadPoint) {
				p.PodSize, p.CarrierSense, p.PreambleAware = 12, false, true
				p.Mode, p.Workers, p.CSRangeM = aquago.WaveformContention, 2, 40
				p.Env, p.Seed = aquago.Lake, 7
			}},
		{args: "-nodes 1", code: 1, err: "at least 2 nodes"},
		{args: "-nodes 61", code: 1, err: "60-device network limit"},
		{args: "-rate -0.1", code: 1, err: "must be positive"},
		{args: "-rate NaN", code: 1, err: "not a finite number"},
		{args: "-rate +Inf", code: 1, err: "not a finite number"},
		{args: "-duration 0", code: 1, err: "must be positive"},
		{args: "-duration -5", code: 1, err: "must be positive"},
		{args: "-duration NaN", code: 1, err: "not a finite time"},
		{args: "-rate 500 -duration 1e6", code: 1, err: "cap"},
		{args: "-mode acoustic", code: 2, err: "pick envelope or waveform"},
		{args: "-env atlantis", code: 2, err: "-env"},
		{args: "-workers -2", code: 1, err: "-workers"},
		{args: "-seed -1", code: 1, err: "out of range"},
		{args: "-csrange NaN", code: 1, err: "not a finite distance"},
		{args: "-csrange -3", code: 1, err: "cannot be negative"},
		{args: "-relay", code: 2, err: "-relay"},
	})
}

// TestBuildScalePoint covers the scale flags, funneled through the
// scale harness point's own Validate so CLI and harness cannot drift
// apart on what is buildable.
func TestBuildScalePoint(t *testing.T) {
	def := exp.ScalePoint{PodsX: 5, PodsY: 5, PodSize: 10, Msgs: 8,
		Seed: 1, Env: aquago.Bridge}
	checkFlags(t, "scale", def, []flagCase[exp.ScalePoint]{
		{args: ""},
		{args: "-csrange 0"},
		{args: "-csrange 40", set: func(p *exp.ScalePoint) { p.CSRangeM = 40 }},
		{args: "-podsize 15", set: func(p *exp.ScalePoint) { p.PodSize = 15 }},
		{args: "-msgs 0", set: func(p *exp.ScalePoint) { p.Msgs = 0 }},
		{args: "-pods-x 1", code: 1, err: "at least two pod columns"},
		{args: "-pods-y 0", code: 1, err: "at least one pod row"},
		{args: "-podsize 0", code: 1, err: "outside 1..15"},
		{args: "-podsize 16", code: 1, err: "outside 1..15"},
		{args: "-pods-x 40 -pods-y 40", code: 1, err: "harness cap"},
		{args: "-msgs 5000", code: 1, err: "outside 1.."},
		{args: "-workers -1", code: 1, err: "-workers"},
		{args: "-seed -1", code: 1, err: "out of range"},
		{args: "-csrange NaN", code: 1, err: "not a finite distance"},
		{args: "-csrange -3", code: 1, err: "cannot be negative"},
	})
}

// TestBuildStreamPoint covers the stream flags, funneled through the
// stream harness point's own Validate so CLI and harness cannot drift
// apart on what is runnable.
func TestBuildStreamPoint(t *testing.T) {
	def := exp.StreamPoint{RangeM: 25, Bytes: 32, Retries: 4, Seed: 1, Env: aquago.Bridge}
	checkFlags(t, "stream", def, []flagCase[exp.StreamPoint]{
		{args: ""},
		{args: "-mode waveform", set: func(p *exp.StreamPoint) { p.Mode = aquago.WaveformContention }},
		{args: fmt.Sprint("-window ", aquago.MaxStreamWindow), set: func(p *exp.StreamPoint) { p.Window = aquago.MaxStreamWindow }},
		{args: "-rto 0.5", set: func(p *exp.StreamPoint) { p.RTOS = 0.5 }},
		{args: "-range NaN", code: 1, err: "not a usable distance"},
		{args: "-range -5", code: 1, err: "not a usable distance"},
		{args: "-bytes 0", code: 1, err: "need a payload"},
		{args: "-bytes 1048576", code: 1, err: "cap"},
		{args: "-window -1", code: 1, err: "window"},
		{args: fmt.Sprint("-window ", aquago.MaxStreamWindow+1), code: 1, err: "window"},
		{args: "-stream-retries 0", code: 1, err: "at least 1"},
		{args: "-rto NaN", code: 1, err: "not a usable duration"},
		{args: "-rto -2", code: 1, err: "not a usable duration"},
		{args: "-mode sonar", code: 2, err: "pick envelope or waveform"},
		{args: "-workers -1", code: 1, err: "-workers"},
		{args: "-seed -1", code: 1, err: "out of range"},
		{args: "-csrange 30 -nodes 9", code: 2, err: "-csrange"},
	})
}

// TestBuildImagePoint covers the image flags, including the
// hops/streams axis clash only the CLI can produce.
func TestBuildImagePoint(t *testing.T) {
	def := exp.ImagePoint{Blocks: 16, BlockBytes: 7, Hops: 1, Streams: 1,
		RangeM: 25, Retries: 4, Seed: 1, Env: aquago.Bridge}
	checkFlags(t, "image", def, []flagCase[exp.ImagePoint]{
		{args: ""},
		{args: "-hops 3", set: func(p *exp.ImagePoint) { p.Hops = 3 }},
		{args: "-streams 3", set: func(p *exp.ImagePoint) { p.Streams = 3 }},
		{args: "-preview 2", set: func(p *exp.ImagePoint) { p.PreviewBlocks = 2 }},
		{args: "-blocks 0", code: 1, err: "at least one block"},
		{args: "-blocksize 0", code: 1, err: "at least one byte"},
		{args: "-blocks 2048", code: 1, err: "cap"},
		{args: "-preview 17", code: 1, err: "preview threshold"},
		{args: "-hops 60", code: 1, err: "60-device limit"},
		{args: "-hops 3 -streams 2", code: 1, err: "direct links"},
		{args: "-streams 9", code: 1, err: "outside [1, 8]"},
		{args: fmt.Sprint("-window ", aquago.MaxStreamWindow+1), code: 1, err: "window"},
		{args: "-stream-retries 0", code: 1, err: "at least 1"},
		{args: "-rto NaN", code: 1, err: "not a usable duration"},
		{args: "-mode sonar", code: 2, err: "pick envelope or waveform"},
		{args: "-workers -3", code: 1, err: "-workers"},
		{args: "-seed -1", code: 1, err: "out of range"},
		{args: "-pods-x 3", code: 2, err: "-pods-x"},
	})
}

// TestBuildRelayPoint covers the relay flags, funneled through the
// multihop harness point's own Validate so CLI and harness cannot
// drift apart on what is runnable.
func TestBuildRelayPoint(t *testing.T) {
	def := exp.MultiHopPoint{Hops: 3, SpacingM: 25, PayloadBytes: 32,
		Policy: aquago.MinHop, Seed: 1, Env: aquago.Bridge}
	checkFlags(t, "relay", def, []flagCase[exp.MultiHopPoint]{
		{args: ""},
		{args: "-mode waveform -policy minetx", set: func(p *exp.MultiHopPoint) {
			p.Mode, p.Policy = aquago.WaveformContention, aquago.MinETX
		}},
		{args: "-csrange 40", set: func(p *exp.MultiHopPoint) { p.CSRangeM = 40 }},
		{args: "-pipelined", set: func(p *exp.MultiHopPoint) { p.Pipelined = true }},
		{args: "-pipelined -persist 0.7 -adaptive-backoff -policy minetx", set: func(p *exp.MultiHopPoint) {
			p.Pipelined, p.Persist, p.AdaptiveBackoff, p.Policy = true, 0.7, true, aquago.MinETX
		}},
		{args: "-hops 0", code: 1, err: "at least one hop"},
		{args: "-hops 60", code: 1, err: "60-device limit"},
		{args: "-spacing NaN", code: 1, err: "not a usable distance"},
		{args: "-spacing -2", code: 1, err: "not a usable distance"},
		{args: "-csrange 10", code: 1, err: "no route exists"},
		{args: "-bulk 0", code: 1, err: "need a payload"},
		{args: "-bulk 1048576", code: 1, err: "cap"},
		{args: "-mode sonar", code: 2, err: "pick envelope or waveform"},
		{args: "-policy hottest-gossip", code: 2, err: "pick minhop or minetx"},
		{args: "-persist NaN", code: 1, err: "persistence"},
		{args: "-persist -0.2", code: 1, err: "persistence"},
		{args: "-persist 1.5", code: 1, err: "persistence"},
		{args: "-seed -1", code: 1, err: "out of range"},
		{args: "-seed 9223372036854775807", code: 1, err: "-seed"},
		{args: "-csrange -3", code: 1, err: "cannot be negative"},
		{args: "-workers -3", code: 2, err: "-workers"},
	})
}

// TestHarnessFlags covers the mobility flags and the choice of
// harness itself: an unknown name or a stray argument is a usage
// error, and run prints nothing on stdout for either.
func TestHarnessFlags(t *testing.T) {
	def := exp.MobilityPoint{Hops: 3, SpacingM: 25, PayloadBytes: 32,
		ChunkBytes: 8, DriftSpeedMS: 1, Seed: 1, Env: aquago.Bridge}
	checkFlags(t, "mobility", def, []flagCase[exp.MobilityPoint]{
		{args: ""},
		{args: "-drift 2 -pipelined", set: func(p *exp.MobilityPoint) { p.DriftSpeedMS, p.Pipelined = 2, true }},
		{args: "-workers -1", code: 1, err: "-workers"},
	})

	misuse := []struct {
		args string
		code int
		want string
	}{
		{"sonar", 2, "unknown harness"},
		{"load extra", 2, "unexpected argument"},
		{"image -hops 3 -streams 2", 1, "direct links"},
	}
	for _, tc := range misuse {
		code, stdout, stderr := runArgs(tc.args)
		if code != tc.code || stdout != "" {
			t.Errorf("%q: exit %d with stdout %q, want exit %d and none", tc.args, code, stdout, tc.code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
}

// TestGoldenOutput runs each documented invocation and compares its
// stdout byte for byte with testdata/<name>.golden.
func TestGoldenOutput(t *testing.T) {
	cases := []struct{ name, args string }{
		{"fig19", ""},
		{"load_waveform", "load -nodes 8 -rate 0.05 -duration 120 -mode waveform"},
		{"relay", "relay -hops 3 -bulk 32"},
		{"relay_pipelined", "relay -pipelined -persist 0.7 -adaptive-backoff -hops 3 -bulk 32"},
		{"scale", "scale"},
		{"stream_range76", "stream -range 76 -bytes 32"},
		{"image_range72", "image -range 72"},
		{"image_hops3", "image -hops 3"},
		{"image_streams2", "image -streams 2"},
		{"mobility_drift2", "mobility -drift 2"},
		{"mobility_drift2_pipelined", "mobility -drift 2 -pipelined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runArgs(tc.args)
			if code != 0 {
				t.Fatalf("aquanet %s: exit %d: %s", tc.args, code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("aquanet %s: stdout differs from %s.golden\n got:\n%s\nwant:\n%s",
					tc.args, tc.name, stdout, want)
			}
		})
	}
}
