// Command aquabench regenerates the paper's evaluation artifacts:
// every figure and table of §3 has a harness in internal/exp, and
// this tool runs them and prints the same series the paper plots.
// Beyond the paper, -exp macload,macsir runs the MAC
// goodput-vs-offered-load sweep and the capture-effect SIR study on
// the live Network, and -exp multihop runs the relay study (bulk
// goodput/latency vs hop count, relayed goodput vs offered load over
// line/grid/pod topologies).
//
// Usage:
//
//	aquabench -list
//	aquabench -exp fig09,fig12 [-packets 100] [-seed 1] [-workers 0]
//	aquabench -exp macload,macsir [-quick] [-json]
//	aquabench -all [-quick] [-json] [-out BENCH_exp.json] [-diff BENCH_exp.json]
//	aquabench -exp scale -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -workers sizes the parallel experiment engine (0 = one worker per
// CPU core, 1 = serial); results are identical for any value. -json
// writes BENCH_exp.json: the run's inputs and every experiment's
// simulated outcomes, so the same inputs write the same bytes. An
// existing file is merged: entries not re-run are kept unless no
// longer registered, so `-exp fig12,macload -json` re-baselines just
// those. -diff is the CI bench job's exact gate: every experiment this
// run re-ran must equal its reference entry, else it prints each
// changed series' largest relative change and exits 1 (2 when the
// reference has other seed, quick or packets). An -exp ID that is not
// registered is a usage error (exit 2), caught before anything runs.
// -exp scale runs the harbor sweep (250 to 10k nodes; quick mode stops
// at 1k). -exp image runs the progressive image transmission study
// (ARQ stream goodput and time-to-first-usable-preview vs range, hop
// count and load). -exp mobility runs the drifting-diver study (bulk
// relay goodput and route repairs vs drift speed under position
// epochs).
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
	"slices"
	"strings"
	"time"

	"aquago/internal/exp"
)

// maxSeed mirrors cmd/aquanet's bound: derived per-point seeds must
// not overflow.
const maxSeed = math.MaxInt64 / 2

// benchExperiment is one experiment's entry in the -json output.
type benchExperiment struct {
	ID     string     `json:"id"`
	Error  string     `json:"error,omitempty"`
	Report exp.Report `json:"report"`
}

// benchFile is the top-level -json document (BENCH_exp.json). It holds
// the run's inputs and virtual-time outcomes only; host cost is
// cmd/aquaperf's record.
type benchFile struct {
	Packets     int               `json:"packets"`
	Seed        int64             `json:"seed"`
	Quick       bool              `json:"quick"`
	Experiments []benchExperiment `json:"experiments"`
}

// selectExperiments resolves -all or the -exp list (never both, so no
// -exp ID goes unchecked) into registered experiment IDs,
// de-duplicated in run order.
func selectExperiments(all bool, ids string) ([]string, error) {
	switch {
	case all && ids != "":
		return nil, errors.New("pass -all or -exp, not both")
	case all:
		return exp.IDs(), nil
	case ids == "":
		return nil, errors.New("pass -all, -exp id[,id...] or -list")
	}
	var out []string
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, errors.New("-exp contains an empty experiment ID")
		}
		if _, ok := exp.Lookup(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
		}
		if !slices.Contains(out, id) {
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
// not re-run survive untouched unless their ID is no longer
// registered, and brand-new IDs append in run order. The header
// describes the current invocation.
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
		} else if _, ok := exp.Lookup(e.ID); !ok {
			continue // a deleted or renamed harness
		}
		merged = append(merged, e)
	}
	for _, e := range cur.Experiments {
		if !seen[e.ID] {
			merged = append(merged, e)
		}
	}
	cur.Experiments = merged
	return cur
}

// diffBench checks that every experiment of cur equals its entry in
// ref, exactly. Experiments ref has but cur did not run are exempt, so
// a partial run gates only what it measured, and a cur without
// experiments checks only the run inputs. The error lists each
// difference; a changed series carries its largest relative change,
// the table an intended re-baseline records.
func diffBench(ref, cur benchFile) error {
	if ref.Seed != cur.Seed || ref.Quick != cur.Quick || ref.Packets != cur.Packets {
		return fmt.Errorf("reference has seed %d, quick %t, packets %d; this run seed %d, quick %t, packets %d",
			ref.Seed, ref.Quick, ref.Packets, cur.Seed, cur.Quick, cur.Packets)
	}
	refs := make(map[string]benchExperiment, len(ref.Experiments))
	for _, e := range ref.Experiments {
		refs[e.ID] = e
	}
	var problems []string
	for _, e := range cur.Experiments {
		r, ok := refs[e.ID]
		if !ok {
			problems = append(problems, e.ID+": no entry in the reference")
			continue
		}
		problems = append(problems, entryChanges(r, e)...)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d difference(s) from the reference:\n  %s",
			len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// entryChanges lists how cur's entry differs from ref's.
func entryChanges(ref, cur benchExperiment) []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, cur.ID+": "+fmt.Sprintf(format, args...))
	}
	rr, cr := ref.Report, cur.Report
	if ref.Error != cur.Error || rr.ID != cr.ID || rr.Title != cr.Title {
		add("id/title/error %q/%q/%q -> %q/%q/%q", rr.ID, rr.Title, ref.Error, cr.ID, cr.Title, cur.Error)
	}
	if !slices.Equal(rr.Notes, cr.Notes) {
		add("notes %q -> %q", rr.Notes, cr.Notes)
	}
	if len(rr.Series) != len(cr.Series) {
		add("%d series -> %d", len(rr.Series), len(cr.Series))
		return out
	}
	for i, rs := range rr.Series {
		cs := cr.Series[i]
		switch {
		case rs.Name != cs.Name || rs.XLabel != cs.XLabel || rs.YLabel != cs.YLabel:
			add("series %d %q (%s, %s) -> %q (%s, %s)", i, rs.Name, rs.XLabel, rs.YLabel, cs.Name, cs.XLabel, cs.YLabel)
		case !slices.Equal(rs.X, cs.X):
			add("%s: X grid %v -> %v", rs.Name, rs.X, cs.X)
		case !slices.Equal(rs.Y, cs.Y):
			rel, x := largestRelChange(rs, cs)
			add("%s: Y largest relative change %.2g (x=%g)", rs.Name, rel, x)
		}
	}
	return out
}

// largestRelChange returns the largest |cur-ref|/|ref| over the points
// of two series on the same X grid, and the X it occurs at (a change
// from 0 counts as 1).
func largestRelChange(ref, cur exp.Series) (rel, x float64) {
	for i := range ref.Y {
		d := math.Abs(cur.Y[i] - ref.Y[i])
		if d == 0 {
			continue
		}
		r := 1.0
		if ref.Y[i] != 0 {
			r = d / math.Abs(ref.Y[i])
		}
		if r > rel {
			rel, x = r, ref.X[i]
		}
	}
	return rel, x
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
	packets := flag.Int("packets", 0, "packets per measurement point (0 = default 100)")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced workloads for a fast pass")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores, 1 = serial)")
	jsonOut := flag.Bool("json", false, "write every experiment's notes and series as JSON")
	outPath := flag.String("out", "BENCH_exp.json", "output path for -json")
	diffPath := flag.String("diff", "", "reference bench file; exit 1 if any re-run experiment's record differs from it")
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
	selected, err := selectExperiments(*all, *ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		os.Exit(2)
	}
	// Read the -diff reference and any previous output up front:
	// -diff and -out may name the same file, and merge must see the
	// pre-run state. A reference made with other inputs is a usage
	// error, caught before anything runs.
	bench := benchFile{Packets: *packets, Seed: *seed, Quick: *quick}
	var refBench *benchFile
	if *diffPath != "" {
		bf, err := readBenchFile(*diffPath)
		if err == nil {
			err = diffBench(bf, bench)
		}
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
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquabench: profile:", err)
		os.Exit(2)
	}
	failed := false
	for _, id := range selected {
		start := time.Now()
		rep, err := exp.Run(id, cfg)
		entry := benchExperiment{ID: id, Report: rep}
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
		fmt.Printf("wrote %s (%d experiments)\n", *outPath, len(outBench.Experiments))
	}
	if refBench != nil {
		if err := diffBench(*refBench, bench); err != nil {
			fmt.Fprintln(os.Stderr, "aquabench:", err)
			failed = true
		} else {
			fmt.Printf("every re-run experiment matches %s exactly\n", *diffPath)
		}
	}
	if failed {
		os.Exit(1)
	}
}
