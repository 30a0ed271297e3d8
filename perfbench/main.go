// Command perfbench is the repository benchmark: it drives the jxta
// simulator through its public packages on one named workload, times the
// set-up and the measured phase, checks the outputs, and prints one JSON
// result object as the last line of standard output.
//
//	perfbench --workload discovery-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// repetitions. With --trace 1 it carries the per-layer metrics of a traced
// run: transport observer counts, wall-clock spans around the benchmark's
// own calls, layer counters, codec microbenchmarks on captured data and a
// CPU profile charged to the innermost jxta/internal package. The benchmark
// changes no program code; everything it reports is read from outside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: overlay, names, query order and interleave derive from it")
	seconds := fs.Int("seconds", 10, "measuring budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	meta, err := runMeta(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second
	res, info, err := measure(w, w.full, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	meta.Workload, meta.Seed, meta.Seconds, meta.Trace = w.name, *seed, *seconds, *trace
	meta.Sizes = w.full.describe()
	meta.Run = info
	for _, p := range info.Problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err := printJSON(stdout, map[string]any{"meta": meta}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the run's provenance beyond the result line: repetition
// counts, the raw per-repetition times behind each median, and every check
// that failed.
type runInfo struct {
	Reps       int       `json:"reps"`
	TracedReps int       `json:"traced_reps,omitempty"`
	SetupS     []float64 `json:"setup_s"`
	RunS       []float64 `json:"run_s"`
	// RefS are the reference job's times, one after each repetition, and
	// HostScale the factor that turns raw wall times into the reported
	// reference-host seconds.
	RefS      []float64 `json:"ref_s"`
	HostScale float64   `json:"host_scale,omitempty"`
	OpSamples int       `json:"op_samples"`
	Coverage  float64   `json:"coverage,omitempty"`
	Problems  []string  `json:"problems,omitempty"`
}

// median returns the middle value (the mean of the two middle values for
// even counts); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linear-interpolation quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// liveHeap settles the collector (two cycles, so memory freed by the first
// cycle's finalizers is gone too) and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
