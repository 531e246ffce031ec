package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// fileWith builds a minimal bench file (seed 1, quick) for merge and
// diff tests.
func fileWith(entries ...benchExperiment) benchFile {
	return benchFile{Seed: 1, Quick: true, Experiments: entries}
}

func entry(id string, series ...exp.Series) benchExperiment {
	return benchExperiment{ID: id, Report: exp.Report{ID: id, Title: id + " title", Series: series}}
}

func series(name string, ys ...float64) exp.Series {
	s := exp.Series{Name: name, XLabel: "x", YLabel: "y"}
	for i, y := range ys {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, y)
	}
	return s
}

func TestMergeBenchCarriesUnrunExperiments(t *testing.T) {
	prev := fileWith(
		entry("fig09", series("per", 1)),
		entry("tab-runtime", series("runtimes", 667)), // no longer registered
		entry("macload", series("goodput old", 10)),
	)
	cur := fileWith(
		entry("macload", series("goodput new", 12)),
		entry("macsir", series("survival", 1)),
	)
	got := mergeBench(prev, cur)
	var ids []string
	for _, e := range got.Experiments {
		ids = append(ids, e.ID)
	}
	// fig09 keeps its position, macload is replaced in place, macsir
	// appends, and the unregistered tab-runtime entry is dropped.
	if !slices.Equal(ids, []string{"fig09", "macload", "macsir"}) {
		t.Fatalf("merged %v, want [fig09 macload macsir]", ids)
	}
	if got.Experiments[1].Report.Series[0].Name != "goodput new" {
		t.Fatalf("re-run experiment not replaced in place: %+v", got.Experiments[1])
	}
}

// TestDiffBenchIsExact pins the -diff gate: any difference in a re-run
// experiment's record fails, whatever the series is called, and only
// experiments this run did not re-run are exempt.
func TestDiffBenchIsExact(t *testing.T) {
	ref := fileWith(
		entry("macload",
			series("goodput N=5 envelope energy-cs", 10, 20, 30),
			series("latency p90 N=5", 1, 2, 3)),
		entry("image", series("time to first usable preview vs range (stream)", 2, 4)),
	)
	ref.Experiments[0].Report.Notes = []string{"conflict width 1"}
	// mutate returns a deep copy of ref changed by f.
	mutate := func(f func(*benchFile)) benchFile {
		var cp benchFile
		data, err := json.Marshal(ref)
		if err == nil {
			err = json.Unmarshal(data, &cp)
		}
		if err != nil {
			t.Fatal(err)
		}
		f(&cp)
		return cp
	}
	cases := []struct {
		name    string
		cur     benchFile
		wantErr string // "" = must pass
	}{
		{name: "identical record", cur: mutate(func(*benchFile) {})},
		{name: "experiment not re-run", cur: mutate(func(b *benchFile) {
			b.Experiments = b.Experiments[:1]
		})},
		{name: "1-ULP latency change", wantErr: "latency p90 N=5: Y largest relative change",
			cur: mutate(func(b *benchFile) {
				y := b.Experiments[0].Report.Series[1].Y
				y[2] = math.Nextafter(y[2], 4)
			})},
		{name: "1-ULP preview change", wantErr: "time to first usable preview",
			cur: mutate(func(b *benchFile) {
				y := b.Experiments[1].Report.Series[0].Y
				y[0] = math.Nextafter(y[0], 0)
			})},
		{name: "changed note", wantErr: `notes ["conflict width 1"] -> ["conflict width 2"]`,
			cur: mutate(func(b *benchFile) { b.Experiments[0].Report.Notes[0] = "conflict width 2" })},
		{name: "changed X grid", wantErr: "X grid",
			cur: mutate(func(b *benchFile) { b.Experiments[0].Report.Series[0].X[1] = 1.5 })},
		{name: "re-run experiment missing from the reference", wantErr: "fig09: no entry",
			cur: mutate(func(b *benchFile) {
				b.Experiments = append(b.Experiments, entry("fig09", series("per", 1)))
			})},
		{name: "mismatched seed", wantErr: "seed 1",
			cur: mutate(func(b *benchFile) { b.Seed = 2 })},
		{name: "mismatched quick flag", wantErr: "quick true",
			cur: mutate(func(b *benchFile) { b.Quick = false })},
		{name: "mismatched inputs before any run", wantErr: "packets 0",
			cur: benchFile{Seed: 1, Packets: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := diffBench(ref, tc.cur)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("flagged: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestDiffThroughput pins the gate on a throughput series: a fall the
// old ±15% tolerance let through now fails and names the load point,
// as do a changed load grid and a dropped series, while a partial run
// still exempts what it did not measure.
func TestDiffThroughput(t *testing.T) {
	ref := fileWith(entry("macload",
		series("goodput N=5 envelope energy-cs", 10, 20, 30),
		series("latency p90 N=5", 1, 2, 3),
	))
	if err := diffBench(ref, ref); err != nil {
		t.Fatalf("identical runs flagged: %v", err)
	}
	small := fileWith(entry("macload",
		series("goodput N=5 envelope energy-cs", 10, 17.5, 30),
		series("latency p90 N=5", 1, 2, 3),
	))
	err := diffBench(ref, small)
	if err == nil || !strings.Contains(err.Error(), "goodput N=5 envelope energy-cs: Y largest relative change 0.12 (x=1)") {
		t.Fatalf("12.5%% goodput fall not reported at x=1: %v", err)
	}
	regrid := fileWith(entry("macload",
		exp.Series{Name: "goodput N=5 envelope energy-cs", XLabel: "x", YLabel: "y",
			X: []float64{10, 11, 12}, Y: []float64{10, 20, 30}},
		series("latency p90 N=5", 1, 2, 3),
	))
	if err := diffBench(ref, regrid); err == nil || !strings.Contains(err.Error(), "X grid") {
		t.Fatalf("changed load grid not reported: %v", err)
	}
	dropped := fileWith(entry("macload", series("latency p90 N=5", 1, 2, 3)))
	if err := diffBench(ref, dropped); err == nil || !strings.Contains(err.Error(), "2 series -> 1") {
		t.Fatalf("dropped goodput series not reported: %v", err)
	}
	partial := fileWith(entry("fig09", series("per", 1)))
	if err := diffBench(fileWith(ref.Experiments[0], partial.Experiments[0]), partial); err != nil {
		t.Fatalf("partial run without macload flagged: %v", err)
	}
}

// TestDiffThroughputGatesImageGoodput pins the image block under the
// exact gate: its goodput series is gated, and so now is its
// preview-time series, which the name-matched gate let through.
func TestDiffThroughputGatesImageGoodput(t *testing.T) {
	ref := fileWith(entry("image",
		series("image goodput vs range (stream)", 10, 8),
		series("time to first usable preview vs range (stream)", 2, 4),
	))
	if err := diffBench(ref, ref); err != nil {
		t.Fatalf("identical image runs flagged: %v", err)
	}
	bad := fileWith(entry("image",
		series("image goodput vs range (stream)", 10, 4),
		series("time to first usable preview vs range (stream)", 2, 4),
	))
	if err := diffBench(ref, bad); err == nil || !strings.Contains(err.Error(), "image goodput") {
		t.Fatalf("image goodput regression not reported: %v", err)
	}
	slow := fileWith(entry("image",
		series("image goodput vs range (stream)", 10, 8),
		series("time to first usable preview vs range (stream)", 20, 40),
	))
	err := diffBench(ref, slow)
	if err == nil || !strings.Contains(err.Error(), "time to first usable preview") || strings.Contains(err.Error(), "image goodput") {
		t.Fatalf("preview-only slowdown not reported alone: %v", err)
	}
}

// TestDiffThroughputGatesCommittedExchanges pins the scale block under
// the exact gate: its committed-exchanges series, now a virtual-time
// count, fails on any change even with every goodput series intact,
// and a scale re-run that drops it fails.
func TestDiffThroughputGatesCommittedExchanges(t *testing.T) {
	ref := fileWith(
		entry("macload", series("goodput N=5 envelope energy-cs", 10, 20)),
		entry("scale",
			series("delivered fraction vs nodes", 1, 0.9),
			series("committed exchanges vs nodes", 400, 300),
		),
	)
	if err := diffBench(ref, ref); err != nil {
		t.Fatalf("identical scale runs flagged: %v", err)
	}
	bad := fileWith(
		entry("macload", series("goodput N=5 envelope energy-cs", 10, 20)),
		entry("scale",
			series("delivered fraction vs nodes", 1, 0.9),
			series("committed exchanges vs nodes", 400, 299),
		),
	)
	err := diffBench(ref, bad)
	if err == nil || !strings.Contains(err.Error(), "scale: committed exchanges vs nodes") || strings.Contains(err.Error(), "macload") {
		t.Fatalf("committed-exchanges change not reported alone: %v", err)
	}
	droppedScale := fileWith(
		entry("macload", series("goodput N=5 envelope energy-cs", 10, 20)),
		entry("scale", series("delivered fraction vs nodes", 1, 0.9)),
	)
	if err := diffBench(ref, droppedScale); err == nil || !strings.Contains(err.Error(), "scale: 2 series -> 1") {
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
