package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquago/internal/exp"
)

func TestSelectExperiments(t *testing.T) {
	cases := []struct {
		name                                           string
		all, macload, multihop, scale, image, mobility bool
		ids                                            string
		want                                           []string
		wantErr                                        string
	}{
		{name: "nothing selected", wantErr: "pass -all"},
		{name: "macload shorthand", macload: true, want: []string{"macload", "macsir"}},
		{name: "multihop shorthand", multihop: true, want: []string{"multihop"}},
		{name: "scale shorthand", scale: true, want: []string{"scale"}},
		{name: "image shorthand", image: true, want: []string{"image"}},
		{name: "mobility shorthand", mobility: true, want: []string{"mobility"}},
		{name: "explicit ids", ids: "fig09, fig12", want: []string{"fig09", "fig12"}},
		{name: "ids plus macload", ids: "fig09", macload: true, want: []string{"fig09", "macload", "macsir"}},
		{name: "macload deduplicates", ids: "macload", macload: true, want: []string{"macload", "macsir"}},
		{name: "all shorthands", macload: true, multihop: true, scale: true, image: true, mobility: true,
			want: []string{"macload", "macsir", "multihop", "scale", "image", "mobility"}},
		{name: "multihop deduplicates", ids: "multihop", multihop: true, want: []string{"multihop"}},
		{name: "scale deduplicates", ids: "scale", scale: true, want: []string{"scale"}},
		{name: "image deduplicates", ids: "image", image: true, want: []string{"image"}},
		{name: "mobility deduplicates", ids: "mobility", mobility: true, want: []string{"mobility"}},
		{name: "empty id", ids: "fig09,,fig12", wantErr: "empty experiment ID"},
	}
	for _, tc := range cases {
		got, err := selectExperiments(tc.all, tc.macload, tc.multihop, tc.scale, tc.image, tc.mobility, tc.ids)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		default:
			if len(got) != len(tc.want) {
				t.Errorf("%s: selected %v, want %v", tc.name, got, tc.want)
				continue
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("%s: selected %v, want %v", tc.name, got, tc.want)
					break
				}
			}
		}
	}
	// -all must include the new experiments (the bench job relies on
	// one invocation covering every gated throughput block).
	all, err := selectExperiments(true, false, false, false, false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, id := range all {
		found[id] = true
	}
	if !found["macload"] || !found["macsir"] || !found["multihop"] || !found["scale"] || !found["image"] || !found["mobility"] {
		t.Fatalf("-all selection %v is missing macload/macsir/multihop/scale/image/mobility", all)
	}
}

func TestValidateBenchFlags(t *testing.T) {
	if err := validateBenchFlags(0, 1, 0); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	cases := []struct {
		name    string
		packets int
		seed    int64
		workers int
		wantErr string
	}{
		{"negative packets", -5, 1, 0, "-packets"},
		{"negative workers", 0, 1, -1, "-workers"},
		{"negative seed", 0, -1, 0, "out of range"},
		{"huge seed", 0, math.MaxInt64, 0, "out of range"},
	}
	for _, tc := range cases {
		err := validateBenchFlags(tc.packets, tc.seed, tc.workers)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// fileWith builds a minimal bench file from (experiment, series, Y
// values) triples for merge/diff tests.
func fileWith(entries ...benchExperiment) benchFile {
	return benchFile{Experiments: entries}
}

func entry(id string, series ...exp.Series) benchExperiment {
	return benchExperiment{ID: id, Report: exp.Report{ID: id, Series: series}}
}

func goodputSeries(name string, ys ...float64) exp.Series {
	s := exp.Series{Name: name}
	for i, y := range ys {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, y)
	}
	return s
}

func TestMergeBenchCarriesUnrunExperiments(t *testing.T) {
	prev := fileWith(
		entry("fig09", goodputSeries("per", 1)),
		entry("macload", goodputSeries("goodput old", 10)),
	)
	prev.Experiments[0].WallMS = 100
	prev.Experiments[1].WallMS = 7000
	prev.TotalMS = 7100
	cur := fileWith(
		entry("macload", goodputSeries("goodput new", 12)),
		entry("macsir", goodputSeries("survival", 1)),
	)
	cur.Experiments[0].WallMS = 5000
	cur.Experiments[1].WallMS = 900
	cur.TotalMS = 5950
	got := mergeBench(prev, cur)
	if len(got.Experiments) != 3 {
		t.Fatalf("merged %d experiments, want 3: %+v", len(got.Experiments), got.Experiments)
	}
	if got.Experiments[0].ID != "fig09" {
		t.Fatalf("carried experiment lost its position: %+v", got.Experiments)
	}
	if got.Experiments[1].ID != "macload" || got.Experiments[1].Report.Series[0].Name != "goodput new" {
		t.Fatalf("re-run experiment not replaced in place: %+v", got.Experiments[1])
	}
	if got.Experiments[2].ID != "macsir" {
		t.Fatalf("new experiment not appended: %+v", got.Experiments)
	}
	// The header's total covers every merged entry, not just this
	// invocation's: 100 carried + 5000 + 900 re-run.
	if got.TotalMS != 6000 {
		t.Fatalf("merged total_ms %.1f, want the entries' sum 6000", got.TotalMS)
	}
}

func TestDiffThroughput(t *testing.T) {
	ref := fileWith(entry("macload",
		goodputSeries("goodput N=5 envelope energy-cs", 10, 20, 30),
		exp.Series{Name: "latency p90 N=5", Y: []float64{1, 2, 3}},
	))

	// Identical run passes.
	if err := diffThroughput(ref, ref, 0.15); err != nil {
		t.Fatalf("identical runs flagged: %v", err)
	}
	// Within tolerance passes; ungated series are ignored even when
	// they collapse.
	ok := fileWith(entry("macload",
		goodputSeries("goodput N=5 envelope energy-cs", 9, 17.5, 27),
		exp.Series{Name: "latency p90 N=5", Y: []float64{100, 200, 300}},
	))
	if err := diffThroughput(ref, ok, 0.15); err != nil {
		t.Fatalf("within-tolerance run flagged: %v", err)
	}
	// A > 15% drop on any point fails and names the load point.
	bad := fileWith(entry("macload",
		goodputSeries("goodput N=5 envelope energy-cs", 10, 15, 30),
	))
	err := diffThroughput(ref, bad, 0.15)
	if err == nil || !strings.Contains(err.Error(), "x=1") {
		t.Fatalf("regressed point not reported: %v", err)
	}
	// Points are matched by X, not index: a run on a different load
	// grid gates nothing (no common points), even with lower Y values.
	regrid := fileWith(entry("macload",
		exp.Series{Name: "goodput N=5 envelope energy-cs",
			X: []float64{10, 11, 12}, Y: []float64{1, 1, 1}},
	))
	if err := diffThroughput(ref, regrid, 0.15); err != nil {
		t.Fatalf("disjoint load grid flagged: %v", err)
	}
	// Dropping every gated series from a re-run experiment fails.
	dropped := fileWith(entry("macload",
		exp.Series{Name: "latency p90 N=5", Y: []float64{1, 2, 3}},
	))
	if err := diffThroughput(ref, dropped, 0.15); err == nil || !strings.Contains(err.Error(), "produced none") {
		t.Fatalf("dropped goodput series not reported: %v", err)
	}
	// Not running the experiment at all exempts it (partial runs only
	// gate what they measured).
	partial := fileWith(entry("fig09", goodputSeries("per", 1)))
	if err := diffThroughput(ref, partial, 0.15); err != nil {
		t.Fatalf("partial run without macload flagged: %v", err)
	}
	// A reference without gated series gates nothing.
	if err := diffThroughput(fileWith(entry("fig09")), bad, 0.15); err != nil {
		t.Fatalf("throughput-free reference flagged: %v", err)
	}
}

// TestDiffThroughputGatesImageGoodput pins the image block's
// membership in the -diff gate: its goodput series are gated, its
// preview-time series are not (latency, like the relay study's).
func TestDiffThroughputGatesImageGoodput(t *testing.T) {
	ref := fileWith(entry("image",
		goodputSeries("image goodput vs range (stream)", 10, 8),
		exp.Series{Name: "time to first usable preview vs range (stream)", Y: []float64{2, 4}},
	))
	if err := diffThroughput(ref, ref, 0.15); err != nil {
		t.Fatalf("identical image runs flagged: %v", err)
	}
	bad := fileWith(entry("image",
		goodputSeries("image goodput vs range (stream)", 10, 4),
		exp.Series{Name: "time to first usable preview vs range (stream)", Y: []float64{2, 4}},
	))
	err := diffThroughput(ref, bad, 0.15)
	if err == nil || !strings.Contains(err.Error(), "image goodput") {
		t.Fatalf("image goodput regression not reported: %v", err)
	}
	// Slower previews alone do not trip the throughput gate.
	slow := fileWith(entry("image",
		goodputSeries("image goodput vs range (stream)", 10, 8),
		exp.Series{Name: "time to first usable preview vs range (stream)", Y: []float64{20, 40}},
	))
	if err := diffThroughput(ref, slow, 0.15); err != nil {
		t.Fatalf("preview-only slowdown flagged as throughput regression: %v", err)
	}
}

// TestDiffThroughputGatesCommittedExchanges pins the scale block's
// membership in the -diff gate: the committed-exchanges-per-wall-second
// series regressing > 15% fails even with every goodput series intact.
func TestDiffThroughputGatesCommittedExchanges(t *testing.T) {
	ref := fileWith(
		entry("macload", goodputSeries("goodput N=5 envelope energy-cs", 10, 20)),
		entry("scale",
			goodputSeries("committed exchanges per wall-second vs nodes", 40, 30),
			exp.Series{Name: "harbor build-out wall time vs nodes", Y: []float64{1, 2}},
		),
	)
	if err := diffThroughput(ref, ref, 0.15); err != nil {
		t.Fatalf("identical scale runs flagged: %v", err)
	}
	// Wall-time series are not gated (they are wall-clock noise), but
	// the committed-exchanges rate is.
	bad := fileWith(
		entry("macload", goodputSeries("goodput N=5 envelope energy-cs", 10, 20)),
		entry("scale",
			goodputSeries("committed exchanges per wall-second vs nodes", 40, 20),
			exp.Series{Name: "harbor build-out wall time vs nodes", Y: []float64{100, 200}},
		),
	)
	err := diffThroughput(ref, bad, 0.15)
	if err == nil || !strings.Contains(err.Error(), "committed exchanges") {
		t.Fatalf("committed-exchanges regression not reported: %v", err)
	}
	// A scale re-run that silently drops the committed series fails.
	droppedScale := fileWith(
		entry("macload", goodputSeries("goodput N=5 envelope energy-cs", 10, 20)),
		entry("scale", exp.Series{Name: "harbor build-out wall time vs nodes", Y: []float64{1, 2}}),
	)
	if err := diffThroughput(ref, droppedScale, 0.15); err == nil || !strings.Contains(err.Error(), "produced none") {
		t.Fatalf("dropped committed-exchanges series not reported: %v", err)
	}
}

// TestProfilesCoverAnExperiment runs one quick experiment between
// startProfiles and its stop, as main does, and checks that both
// profiles are written as non-empty gzip-compressed pprof files.
func TestProfilesCoverAnExperiment(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run("fig08", exp.RunConfig{Quick: true, Workers: 1, Seed: 1}); err != nil {
		stop()
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s: %d bytes, want a non-empty gzip-compressed profile", filepath.Base(path), len(data))
		}
	}
	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("startProfiles into a missing directory succeeded")
	}
}
