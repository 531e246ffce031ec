package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json these
// tests hold the command to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// output is one parsed run: metric units by name, info lines and the
// final JSON object.
type output struct {
	units  map[string]string
	info   []string
	result struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
}

func runOK(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("aquaperf %v exited %d: %s", args, code, stderr.String())
	}
	out := output{units: map[string]string{}}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines[:len(lines)-1] {
		if info, ok := strings.CutPrefix(line, "# "); ok {
			out.info = append(out.info, info)
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("line %q is not \"name value unit\"", line)
		}
		out.units[f[0]] = f[2]
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.result); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !out.result.Correct || out.result.Failed != 0 || out.result.Attempted < 1 {
		t.Fatalf("aquaperf %v: correct %v, failed %d of %d", args, out.result.Correct, out.result.Failed, out.result.Attempted)
	}
	return out
}

func (o output) digest(t *testing.T) string {
	t.Helper()
	for _, line := range o.info {
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			return strings.Fields(d)[0]
		}
	}
	t.Fatalf("no digest in %q", o.info)
	return ""
}

// TestShortRuns runs a short mode of every workload: each prints every
// end-to-end metric BENCHMARK.json names, with its unit, and the digest
// of the simulated outcomes repeats across runs (and network worker
// counts) and changes with the seed.
func TestShortRuns(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base := []string{"-workload", w.Name, "-ops", "2"}
			first := runOK(t, append(base, "-seed", "1", "-workers", "2")...)
			for _, m := range b.EndToEnd {
				if first.units[m.Name] != m.Unit || first.result.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("metric %s: printed unit %q, JSON unit %q, want %q",
						m.Name, first.units[m.Name], first.result.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if len(first.result.Metrics) != len(b.EndToEnd) {
				t.Errorf("JSON has %d metrics, BENCHMARK.json names %d", len(first.result.Metrics), len(b.EndToEnd))
			}
			// The repeat of pods and collide, the workloads with
			// concurrent network workers, runs on one worker.
			workers := "2"
			if w.Name == "pods" || w.Name == "collide" {
				workers = "1"
			}
			d := first.digest(t)
			if again := runOK(t, append(base, "-seed", "1", "-workers", workers)...).digest(t); again != d {
				t.Errorf("digest %s with 2 workers, then %s on a repeat with %s", d, again, workers)
			}
			if other := runOK(t, append(base, "-seed", "2", "-workers", "2")...).digest(t); other == d {
				t.Errorf("seeds 1 and 2 share digest %s", d)
			}
		})
	}
}

// TestTracedRun checks that a traced short run prints every per-layer
// metric BENCHMARK.json names (the kernel microbenchmarks run only in a
// timed run) and writes its spans as JSONL.
func TestTracedRun(t *testing.T) {
	b := loadBenchmark(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	out := runOK(t, "-workload", "link", "-seed", "3", "-ops", "2", "-trace", "1", "-spans", spans)
	for _, m := range b.PerLayer {
		if strings.HasPrefix(m.Name, "kernel.") {
			continue
		}
		if out.units[m.Name] != m.Unit {
			t.Errorf("metric %s: printed unit %q, want %q", m.Name, out.units[m.Name], m.Unit)
		}
	}
	if v := out.result.Metrics["phy.data_ms_per_op"].Value; v <= 0 {
		t.Errorf("phy.data_ms_per_op = %v, want > 0", v)
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		names[s.Name]++
	}
	if names["op"] != 2 || names["channel.render"] == 0 || names["modem.preamble"] == 0 {
		t.Errorf("span counts %v, want 2 ops with renders and stages", names)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stage", Start: 0, End: 60},
		{ID: 3, Parent: 2, Name: "render", Start: 10, End: 30},
		{ID: 4, Parent: 2, Name: "render", Start: 20, End: 40}, // overlaps the one before
		{ID: 5, Parent: 2, Name: "render", Start: 50, End: 70}, // runs past its parent
		{ID: 6, Parent: 1, Name: "stage", Start: 60, End: 90},
		{ID: 7, Name: "join", Start: 200, End: 230},
	}
	want := []int64{10, 60 - 30 - 10, 20, 20, 20, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestParseBench(t *testing.T) {
	text := `goos: linux
BenchmarkFFT960          	    3751	     63314 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouteBuild/N=2000-2 	   11588	     21127 ns/op	   71040 B/op	      45 allocs/op
PASS`
	m, err := parseBench(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"kernel.FFT960.ns_per_op":         63314,
		"kernel.FFT960.allocs_per_op":     0,
		"kernel.RouteBuild.ns_per_op":     21127,
		"kernel.RouteBuild.allocs_per_op": 45,
	}
	if len(m) != len(want) {
		t.Errorf("parsed %v, want %v", m, want)
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "reef"},
		{},
		{"-workload", "link", "-ops", "-1"},
		{"-workload", "link", "-seed", "-1"},
		{"-workload", "link", "-seed", "4294967296"},
		{"-workload", "link", "-trace", "2"},
		{"-workload", "link", "-seconds", "0"},
		{"-workload", "link", "-workers", "-2"},
		{"-workload", "link", "extra"},
		{"-bogus"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("aquaperf %v: exit %d with stdout %q, want exit 2 and no output", args, code, stdout.String())
		}
	}
}
