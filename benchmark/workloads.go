package main

import (
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// workload is one benchmark input: an application at a fixed scale and
// timing mode. Every round of every workload runs the same pipeline —
// traced run with local finalize, streamed finalize, collector ingest,
// decode — so every metric exists everywhere; the inputs decide which
// layers carry the time.
type workload struct {
	name  string
	app   string // internal/workloads registry name
	procs int
	iters int
	lossy bool
	// collectRuns is how many runs of the round's snapshots are pushed
	// through the collector, each under its own run ID.
	collectRuns int
	// reps is how many in-memory and how many streamed finalizes a
	// round makes of its snapshots, so that a finalize of a few
	// milliseconds still gets tens of milliseconds of samples per round.
	reps int
}

var allWorkloads = []workload{
	// A looping stream under per-call lossy timing: the Sequitur loop
	// path plus internal/timing record and reconstruction.
	{name: "trace_lossy", app: "milc", procs: 16, iters: 3, lossy: true, collectRuns: 8, reps: 3},
	// 4096 unique grammars and ~8K global CST entries: the §3.5 merge,
	// relabel, dedup/pack, trace write and spill I/O carry the round.
	{name: "finalize_wide", app: "cg", procs: 4096, iters: 3, collectRuns: 1, reps: 1},
	// Many 256-rank runs through the loopback collector per round: wire
	// encode/decode, ingest, merge-on-arrival, collector-side finalize.
	{name: "collect_ingest", app: "stencil2d", procs: 256, iters: 10, collectRuns: 8, reps: 8},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		out[i] = w.name
	}
	return out
}

// small returns the workload shrunk for the self-test: same app and
// timing mode, a few ranks and iterations.
func (w workload) small() workload {
	w.procs = map[string]int{"milc": 16, "cg": 64, "stencil2d": 16}[w.app]
	w.iters = map[string]int{"milc": 1, "cg": 2, "stencil2d": 3}[w.app]
	w.collectRuns = min(w.collectRuns, 2)
	w.reps = min(w.reps, 2)
	return w
}

func (w workload) timingMode() uint8 {
	if w.lossy {
		return trace.TimingLossy
	}
	return trace.TimingAggregated
}

func (w workload) body() (func(p *mpi.Proc), error) {
	return workloads.Get(w.app, w.iters, w.procs)
}

// spillBatch is the resident-snapshot bound K of the streamed finalize:
// a quarter of the ranks, capped at 64 like the finalize_mem experiment.
func (w workload) spillBatch() int {
	k := w.procs / 4
	if k > 64 {
		k = 64
	}
	if k < 1 {
		k = 1
	}
	return k
}
