// Command aquaperf is the repository's host-cost benchmark. It builds one
// seeded workload on the public aquago API, warms it up, runs a timed
// loop, checks every output and prints what the simulator cost the host
// per operation: wall time, CPU, allocations and heap. With -trace 1 it
// instead times the calls at each layer boundary, runs the layer
// microbenchmarks and prints the per-layer ledger. README.md describes
// the workloads, the metrics and how to compare two commits.
//
//	bash cmd/aquaperf/run.sh -workload link -seed 1 -seconds 12 -trace 0
//
// Every metric prints as a "name value unit" line; lines starting with
// "#" are information, not metrics (among them the digest of the
// simulated outcomes). The last line is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Exit codes: 0 success, 1 a failed output check or run error, 2 bad
// flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// maxSeed bounds -seed: seeds are 32-bit so every derived per-pair and
// per-lane seed stays far from int64 overflow.
const maxSeed = 1<<32 - 1

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	ops      int
	workers  int
	spans    string
}

// errUsage marks a flag error; run maps it to exit code 2.
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("aquaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run: link, pods, collide or harbor")
	fs.Int64Var(&c.seed, "seed", 1, fmt.Sprintf("input seed, 0..%d", int64(maxSeed)))
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the measured loop in seconds")
	fs.IntVar(&c.trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	fs.IntVar(&c.ops, "ops", 0, "run exactly this many ops after a single set-up instead of -seconds (a functional check: no kernel ledger)")
	fs.IntVar(&c.workers, "workers", 0, "client goroutines and network workers (0 = one per CPU)")
	fs.StringVar(&c.spans, "spans", "", "with -trace 1, write the recorded spans to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return c, errUsage
	}
	bad := func(format string, a ...any) (config, error) {
		fmt.Fprintf(stderr, "aquaperf: "+format+"\n", a...)
		return c, errUsage
	}
	switch {
	case fs.NArg() > 0:
		return bad("unexpected argument %q", fs.Arg(0))
	case workloadByName(c.workload) == nil:
		return bad("unknown workload %q (want link, pods, collide or harbor)", c.workload)
	case c.seed < 0 || c.seed > maxSeed:
		return bad("seed %d outside 0..%d", c.seed, int64(maxSeed))
	case math.IsNaN(c.seconds) || c.seconds <= 0 || c.seconds > 600:
		return bad("seconds %v outside (0, 600]", c.seconds)
	case c.trace != 0 && c.trace != 1:
		return bad("trace %d is neither 0 nor 1", c.trace)
	case c.ops < 0:
		return bad("ops %d is negative", c.ops)
	case c.workers < 0:
		return bad("workers %d is negative", c.workers)
	}
	if c.workers == 0 {
		c.workers = runtime.NumCPU()
	}
	return c, nil
}

// metric is one measured value with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome.
type report struct {
	metrics   []metric
	info      []string
	attempted int
	failed    int
	errs      []error
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		return 2
	}
	w := workloadByName(cfg.workload)
	var rep report
	if cfg.trace == 1 {
		rep, err = traceRun(w, cfg, stderr)
	} else {
		rep, err = benchRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "aquaperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, line := range rep.info {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]jsonMetric, len(rep.metrics)),
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%s %.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, e := range rep.errs {
		fmt.Fprintf(stderr, "aquaperf: %s: check failed: %v\n", cfg.workload, e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "aquaperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
