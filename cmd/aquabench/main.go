// Command aquabench regenerates the paper's evaluation artifacts:
// every figure and table of §3 has a harness in internal/exp, and
// this tool runs them and prints the same series the paper plots.
// Beyond the paper, -macload runs the MAC goodput-vs-offered-load
// sweep and the capture-effect SIR study on the live Network, and
// -multihop runs the relay study (bulk goodput/latency vs hop count,
// relayed goodput vs offered load over line/grid/pod topologies).
//
// Usage:
//
//	aquabench -list
//	aquabench -exp fig09,fig12 [-packets 100] [-seed 1] [-workers 0]
//	aquabench -macload [-quick] [-json]
//	aquabench -multihop [-quick] [-json]
//	aquabench -scale [-quick] [-json]
//	aquabench -image [-quick] [-json]
//	aquabench -mobility [-quick] [-json]
//	aquabench -all [-quick] [-json] [-out BENCH_exp.json] [-diff BENCH_exp.json]
//	aquabench -exp scale -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -workers sizes the parallel experiment engine (0 = one worker per
// CPU core, 1 = serial); results are identical for any value. -json
// additionally writes a machine-readable benchmark file with the
// wall time and series of every experiment, the start of the repo's
// performance trajectory across PRs. When the output file already
// exists, experiments not re-run this invocation are carried over, so
// `-macload -json` merges its block into a full BENCH_exp.json
// instead of truncating it. -diff compares every throughput series —
// goodput and the scale harness's committed exchanges per wall-second
// — against a reference bench file and exits non-zero on a > 15 %
// regression (the CI bench job's gate). -scale runs the harbor
// build-out sweep (250 to 10k nodes; quick mode stops at 1k). -image
// runs the progressive image transmission study (ARQ stream goodput
// and time-to-first-usable-preview vs range, hop count and load).
// -mobility runs the drifting-diver study (bulk relay goodput and
// route repairs vs drift speed under position epochs).
// -cpuprofile and -memprofile write runtime/pprof CPU and heap
// profiles covering the selected experiments, for `go tool pprof`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aquago/internal/exp"
)

// maxSeed mirrors cmd/aquanet's bound: derived per-point seeds must
// not overflow.
const maxSeed = math.MaxInt64 / 2

// throughputRegressionTolerance is how far a gated throughput point
// (goodput, committed exchanges per wall-second) may fall below the
// -diff reference before the run fails.
const throughputRegressionTolerance = 0.15

// benchExperiment is one experiment's entry in the -json output.
type benchExperiment struct {
	ID     string     `json:"id"`
	WallMS float64    `json:"wall_ms"`
	Error  string     `json:"error,omitempty"`
	Report exp.Report `json:"report"`
}

// benchFile is the top-level -json document (BENCH_exp.json).
type benchFile struct {
	Timestamp   string            `json:"timestamp"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"num_cpu"`
	Workers     int               `json:"workers"`
	Packets     int               `json:"packets"`
	Seed        int64             `json:"seed"`
	Quick       bool              `json:"quick"`
	TotalMS     float64           `json:"total_ms"`
	Experiments []benchExperiment `json:"experiments"`
}

// macloadIDs / multihopIDs / scaleIDs / imageIDs / mobilityIDs are
// the experiments the shorthand flags select.
var (
	macloadIDs  = []string{"macload", "macsir"}
	multihopIDs = []string{"multihop"}
	scaleIDs    = []string{"scale"}
	imageIDs    = []string{"image"}
	mobilityIDs = []string{"mobility"}
)

// selectExperiments resolves the selection flags into experiment IDs,
// de-duplicated in run order.
func selectExperiments(all, macload, multihop, scale, image, mobility bool, ids string) ([]string, error) {
	var selected []string
	switch {
	case all:
		selected = exp.IDs()
	case ids != "":
		for _, id := range strings.Split(ids, ",") {
			selected = append(selected, strings.TrimSpace(id))
		}
	}
	if macload {
		selected = append(selected, macloadIDs...)
	}
	if multihop {
		selected = append(selected, multihopIDs...)
	}
	if scale {
		selected = append(selected, scaleIDs...)
	}
	if image {
		selected = append(selected, imageIDs...)
	}
	if mobility {
		selected = append(selected, mobilityIDs...)
	}
	if len(selected) == 0 {
		return nil, errors.New("pass -all, -exp id[,id...], -macload, -multihop, -scale, -image, -mobility or -list")
	}
	seen := make(map[string]bool, len(selected))
	out := selected[:0]
	for _, id := range selected {
		if id == "" {
			return nil, errors.New("-exp contains an empty experiment ID")
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, nil
}

// validateBenchFlags rejects flag values the harnesses would quietly
// misread (negative packet budgets fall back to defaults, negative
// seeds break derived-seed reproducibility).
func validateBenchFlags(packets int, seed int64, workers int) error {
	switch {
	case packets < 0:
		return fmt.Errorf("-packets %d: use 0 for the default budget", packets)
	case workers < 0:
		return fmt.Errorf("-workers %d: use 0 for one per core", workers)
	case seed < 0 || seed > maxSeed:
		return fmt.Errorf("-seed %d out of range [0, %d]", seed, int64(maxSeed))
	}
	return nil
}

// readBenchFile loads a previous -json output.
func readBenchFile(path string) (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// mergeBench carries prev's experiments into cur: entries re-run this
// invocation keep their fresh results (in prev's position), entries
// not re-run survive untouched, and brand-new IDs append in run order.
// The header describes the current invocation, except TotalMS, which
// sums the merged entries' wall times so it covers the whole record.
func mergeBench(prev, cur benchFile) benchFile {
	fresh := make(map[string]benchExperiment, len(cur.Experiments))
	for _, e := range cur.Experiments {
		fresh[e.ID] = e
	}
	merged := make([]benchExperiment, 0, len(prev.Experiments)+len(cur.Experiments))
	seen := make(map[string]bool, len(prev.Experiments))
	for _, e := range prev.Experiments {
		seen[e.ID] = true
		if f, ok := fresh[e.ID]; ok {
			e = f
		}
		merged = append(merged, e)
	}
	for _, e := range cur.Experiments {
		if !seen[e.ID] {
			merged = append(merged, e)
		}
	}
	cur.Experiments = merged
	cur.TotalMS = 0
	for _, e := range merged {
		cur.TotalMS += e.WallMS
	}
	return cur
}

// gatedSeries reports whether a series name is throughput-gated by
// -diff: the goodput sweeps, plus the scale harness's committed
// exchanges per wall-second (the 1k-10k-node admission/routing hot
// path — a spatial-index regression shows up here first).
func gatedSeries(name string) bool {
	return strings.Contains(name, "goodput") || strings.Contains(name, "committed exchanges")
}

// diffThroughput compares every gated throughput series of cur against
// ref and reports the points that regressed by more than tol
// (relative). Points are matched by series name AND X value (the
// offered load or node count), so a baseline generated at a different
// sweep scale gates only the points both runs measured instead of
// comparing unrelated loads by index. A series or experiment absent
// from ref is skipped — new coverage is not a regression — but an
// experiment cur re-ran must still carry *some* gated series wherever
// ref had one, so the gate cannot be dodged by dropping the block
// (experiments not selected this invocation are exempt: a partial run
// only gates what it measured).
func diffThroughput(ref, cur benchFile, tol float64) error {
	type refSeries struct {
		expID  string
		byX    map[float64]float64
		series exp.Series
	}
	refs := make(map[string]refSeries)
	gatedExps := make(map[string]bool)
	for _, e := range ref.Experiments {
		for _, s := range e.Report.Series {
			if !gatedSeries(s.Name) {
				continue
			}
			byX := make(map[float64]float64, len(s.X))
			for i := range s.X {
				byX[s.X[i]] = s.Y[i]
			}
			refs[e.ID+"/"+s.Name] = refSeries{expID: e.ID, byX: byX, series: s}
			gatedExps[e.ID] = true
		}
	}
	if len(refs) == 0 {
		return nil // reference predates the throughput blocks
	}
	var problems []string
	curGatedExps := make(map[string]bool)
	for _, e := range cur.Experiments {
		for _, s := range e.Report.Series {
			if !gatedSeries(s.Name) {
				continue
			}
			curGatedExps[e.ID] = true
			rs, ok := refs[e.ID+"/"+s.Name]
			if !ok {
				continue
			}
			for i := range s.X {
				refY, ok := rs.byX[s.X[i]]
				if !ok {
					continue // load point not in the reference grid
				}
				if s.Y[i] < refY*(1-tol) {
					problems = append(problems, fmt.Sprintf(
						"%s/%s at x=%.4g: %.4g -> %.4g (-%.0f%%)",
						e.ID, s.Name, s.X[i], refY, s.Y[i], 100*(1-s.Y[i]/refY)))
				}
			}
		}
	}
	for _, e := range cur.Experiments {
		if gatedExps[e.ID] && !curGatedExps[e.ID] {
			problems = append(problems, fmt.Sprintf(
				"%s: reference has throughput series but this run produced none", e.ID))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("throughput regressed beyond %.0f%% vs reference:\n  %s",
			100*tol, strings.Join(problems, "\n  "))
	}
	return nil
}

// startProfiles starts a CPU profile into cpuPath, when set, and
// returns the function that stops it and then writes a heap profile
// into memPath, when set. The heap profile carries both in-use and
// cumulative allocation samples (go tool pprof -sample_index).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the in-use figures at the end of the run
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	all := flag.Bool("all", false, "run every experiment")
	ids := flag.String("exp", "", "comma-separated experiment IDs")
	macload := flag.Bool("macload", false, "run the MAC goodput sweep and capture-effect SIR study (macload, macsir)")
	multihop := flag.Bool("multihop", false, "run the multi-hop relay study (multihop)")
	scale := flag.Bool("scale", false, "run the 1k-10k-node harbor build-out sweep (scale)")
	image := flag.Bool("image", false, "run the progressive image transmission study (image)")
	mobility := flag.Bool("mobility", false, "run the drifting-diver mobility study (mobility)")
	packets := flag.Int("packets", 0, "packets per measurement point (0 = default 100)")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced workloads for a fast pass")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores, 1 = serial)")
	jsonOut := flag.Bool("json", false, "write per-experiment timings and series as JSON")
	outPath := flag.String("out", "BENCH_exp.json", "output path for -json")
	diffPath := flag.String("diff", "", "reference bench file; exit non-zero if any throughput series regresses > 15%")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after the selected experiments, to this file")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	if err := validateBenchFlags(*packets, *seed, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		os.Exit(2)
	}
	selected, err := selectExperiments(*all, *macload, *multihop, *scale, *image, *mobility, *ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		os.Exit(2)
	}
	// Read the regression reference and any previous output up front:
	// -diff and -out may name the same file, and merge must see the
	// pre-run state.
	var refBench *benchFile
	if *diffPath != "" {
		bf, err := readBenchFile(*diffPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aquabench: -diff %s: %v\n", *diffPath, err)
			os.Exit(2)
		}
		refBench = &bf
	}
	var prevBench *benchFile
	if *jsonOut {
		if bf, err := readBenchFile(*outPath); err == nil {
			prevBench = &bf
		}
	}

	cfg := exp.RunConfig{Packets: *packets, Seed: *seed, Quick: *quick, Workers: *workers}
	bench := benchFile{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Workers:   *workers,
		Packets:   *packets,
		Seed:      *seed,
		Quick:     *quick,
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquabench: profile:", err)
		os.Exit(2)
	}
	failed := false
	totalStart := time.Now()
	for _, id := range selected {
		start := time.Now()
		rep, err := exp.Run(id, cfg)
		wallMS := float64(time.Since(start).Microseconds()) / 1000
		entry := benchExperiment{ID: id, WallMS: wallMS, Report: rep}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aquabench: %s: %v\n", id, err)
			entry.Error = err.Error()
			failed = true
		} else {
			rep.Render(os.Stdout)
			fmt.Printf("   [%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		bench.Experiments = append(bench.Experiments, entry)
	}
	bench.TotalMS = float64(time.Since(totalStart).Microseconds()) / 1000
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "aquabench: profile:", err)
		failed = true
	}

	if *jsonOut {
		outBench := bench
		if prevBench != nil {
			outBench = mergeBench(*prevBench, bench)
		}
		data, err := json.MarshalIndent(outBench, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "aquabench: marshal: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "aquabench: write %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments, total %.0f ms)\n",
			*outPath, len(outBench.Experiments), outBench.TotalMS)
	}
	if refBench != nil {
		if err := diffThroughput(*refBench, bench, throughputRegressionTolerance); err != nil {
			fmt.Fprintln(os.Stderr, "aquabench:", err)
			failed = true
		} else {
			fmt.Printf("throughput within %.0f%% of %s\n", 100*throughputRegressionTolerance, *diffPath)
		}
	}
	if failed {
		os.Exit(1)
	}
}
