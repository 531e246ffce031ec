package main

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// kernels are the repository's layer microbenchmarks the traced run
// records, reused through go test rather than copied, with the package
// each lives in and the sub-benchmark that runs (SchedulerAdmission and
// RouteBuild at N=2000).
var kernels = []struct{ name, pkg, sub string }{
	{"FFT960", "aquago/internal/dsp", ""},
	{"FFT4800", "aquago/internal/dsp", ""},
	{"OverlapAddApplyTo", "aquago/internal/dsp", ""},
	{"Levinson480", "aquago/internal/dsp", ""},
	{"ViterbiDecode24Bits", "aquago/internal/fec", ""},
	{"ModemRoundtrip", "aquago/internal/modem", ""},
	{"DetectPreamble1s", "aquago/internal/modem", ""},
	{"EstimateChannel", "aquago/internal/modem", ""},
	{"TrainEqualizer480", "aquago/internal/modem", ""},
	{"SchedulerAdmission", "aquago", "N=2000"},
	{"RouteBuild", "aquago", "N=2000"},
}

// runKernels runs the kernel microbenchmarks on one CPU and returns
// kernel.<name>.ns_per_op and kernel.<name>.allocs_per_op for each. One
// go test runs per sub-benchmark filter: a two-level -bench pattern
// skips benchmarks that have no sub-benchmarks.
func runKernels(stderr io.Writer) (map[string]float64, error) {
	var subs []string
	names, pkgs := map[string][]string{}, map[string][]string{}
	for _, k := range kernels {
		if _, ok := names[k.sub]; !ok {
			subs = append(subs, k.sub)
		}
		names[k.sub] = append(names[k.sub], k.name)
		if p := pkgs[k.sub]; len(p) == 0 || p[len(p)-1] != k.pkg {
			pkgs[k.sub] = append(p, k.pkg)
		}
	}
	var out bytes.Buffer
	for _, sub := range subs {
		pattern := "^Benchmark(" + strings.Join(names[sub], "|") + ")$"
		if sub != "" {
			pattern += "/^" + sub + "$"
		}
		args := append([]string{"test", "-run", "^$", "-bench", pattern,
			"-benchmem", "-benchtime", "200ms", "-cpu", "1", "-timeout", "120s"}, pkgs[sub]...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("kernel microbenchmarks: %w\n%s", err, out.String())
		}
	}
	m, err := parseBench(out.String())
	if err != nil {
		return nil, err
	}
	for _, k := range kernels {
		if _, ok := m["kernel."+k.name+".ns_per_op"]; !ok {
			return nil, fmt.Errorf("kernel microbenchmark %s did not report", k.name)
		}
	}
	return m, nil
}

// parseBench reads go test -benchmem result lines such as
//
//	BenchmarkRouteBuild/N=2000-2   1234   56789 ns/op   512 B/op   7 allocs/op
//
// keyed by the benchmark's top-level name.
func parseBench(text string) (map[string]float64, error) {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		name, _, _ = strings.Cut(name, "/")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i < len(f); i++ {
			var key string
			switch f[i] {
			case "ns/op":
				key = "ns_per_op"
			case "allocs/op":
				key = "allocs_per_op"
			default:
				continue
			}
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: %w", line, err)
			}
			m["kernel."+name+"."+key] = v
		}
	}
	return m, nil
}
