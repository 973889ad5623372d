// Command pilgrim-benchmark is the repository benchmark: it drives the
// whole Pilgrim pipeline (tracing, local and streamed finalize, the
// collector, decode) on one workload for a fixed wall-clock budget,
// checks every output against references of its own, and prints one
// JSON result line.
//
//	pilgrim-benchmark --workload trace_amr --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from a separate run
// that records spans around every layer call (written as Chrome trace
// JSON under --work) and replays a captured call stream through each
// tracer layer on its own. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured wall-clock seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a span-traced run")
	work := flag.String("work", ".bench_build/work", "scratch directory for spills, collector output and span files")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		os.Exit(2)
	}
	// One OS thread per core the process may use: the simulated ranks,
	// the finalize workers and the collector all share them.
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(w, config{seed: *seed, seconds: *seconds, traced: *traced == 1, work: *work})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSummary writes the metrics as a readable table to stderr.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
