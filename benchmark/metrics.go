package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/spill"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// endToEndMetrics reports what a user of the pipeline pays: medians
// over the rounds of each phase's process CPU time, and the median
// trace size over the inputs (the latest round of each is in kept).
// setupCPU holds the CPU seconds of each set-up capture.
func (b *bench) endToEndMetrics(rounds, kept []*roundResult, setupCPU []float64, out map[string]metric) {
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	var ok []*roundResult
	for _, r := range rounds {
		if r.calls > 0 {
			ok = append(ok, r)
		}
	}
	put("setup_s", median(setupCPU), "s")
	put("traced_calls_per_cpu_s", median(perRound(ok, func(r *roundResult) float64 { return float64(r.calls) / r.tracedCPU })), "1/s")
	put("finalize_cpu_s", median(pooled(ok, func(r *roundResult) []float64 { return r.finalizeCPU })), "s")
	put("finalize_streamed_cpu_s", median(pooled(ok, func(r *roundResult) []float64 { return r.streamedCPU })), "s")
	put("decode_calls_per_cpu_s", median(perRound(ok, func(r *roundResult) float64 { return float64(r.decoded) / r.decodeCPU })), "1/s")
	put("collect_snapshots_per_cpu_s", median(perRound(ok, func(r *roundResult) float64 { return float64(r.sent) / r.collectCPU })), "1/s")
	put("collect_run_cpu_ms", median(pooled(ok, func(r *roundResult) []float64 { return r.runCPUms })), "ms")
	var sizes []float64
	for _, r := range kept {
		if r != nil && r.calls > 0 {
			sizes = append(sizes, float64(len(r.data)))
		}
	}
	put("trace_bytes", median(sizes), "bytes")
}

// peakMetrics reports the peak live heap of the in-memory and of the
// streamed finalize, on the kept rounds' snapshots. The passes read the
// process's live heap, so everything the benchmark itself still holds
// is dropped first: the captures and every round's samples and traces,
// except the kept rounds' snapshots and trace bytes. Call it last.
func (b *bench) peakMetrics(rounds, kept []*roundResult, put putFunc) error {
	var sets []peakSet
	for _, r := range kept {
		if r != nil && r.snaps != nil {
			sets = append(sets, peakSet{r.snaps, r.data})
		}
	}
	b.ref, b.refs = nil, nil
	for _, r := range rounds {
		*r = roundResult{}
	}
	t0 := time.Now()
	inMem, streamed, err := b.peakHeap(sets)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: peak-heap passes took %.1fs\n", since(t0))
	put("finalize.peak_heap_mb", inMem, "MB")
	put("spill.peak_heap_mb", streamed, "MB")
	return nil
}

// peakSet is one input's snapshots and the trace they finalize to.
type peakSet struct {
	snaps []*core.Snapshot
	want  []byte
}

// peakHeap measures the peak live heap of the in-memory and of the
// streamed finalize on every set and returns the medians over the sets;
// the timing inputs change grammar sizes, so one input alone would
// make the reading depend on the seed. Every set is spilled first and
// dropped from memory: an in-memory pass then holds exactly its own
// set, fetched back from the spill, and a streamed pass holds none, as
// on the spill path. The passes run the finalize on one worker, so the
// reading does not depend on how worker goroutines interleave. The
// first set also calibrates the GC percent of each path (one more
// finalize per path). Every finalize is an operation, checked for byte
// identity.
func (b *bench) peakHeap(sets []peakSet) (inMem, streamed float64, err error) {
	opts := b.opts
	opts.FinalizeWorkers = 1
	sopts := opts
	sopts.MaxResidentSnapshots = b.w.spillBatch()
	dir := filepath.Join(b.scratch, "spill-peak")
	defer os.RemoveAll(dir)
	writers := make([]*spill.Writer, len(sets))
	worlds := make([]int, len(sets))
	for i := range sets {
		w, err := spill.NewWriter(filepath.Join(dir, strconv.Itoa(i)), "peak", len(sets[i].snaps), opts)
		if err != nil {
			return 0, 0, err
		}
		defer w.Close()
		for _, s := range sets[i].snaps {
			if err := w.Add(s); err != nil {
				return 0, 0, err
			}
		}
		writers[i], worlds[i] = w, len(sets[i].snaps)
		sets[i].snaps = nil
	}

	var ins, strs []float64
	gogcIn, gogcStr := 0, 0
	for i, w := range writers {
		world, want := worlds[i], sets[i].want
		snaps, err := w.Fetch(0, world)
		if err != nil {
			return 0, 0, err
		}
		inMemPass := func() error {
			f, _ := core.FinalizeSnapshots(snaps, opts, nil)
			return writeAndCheck("in-memory (peak pass)", f, want)
		}
		if i == 0 {
			gogcIn, err = peakGCPercent(inMemPass)
			b.record(1, err)
		}
		mb, err := peakLiveMB(gogcIn, inMemPass)
		b.record(1, err)
		ins = append(ins, mb)
		snaps = nil

		streamedPass := func() error {
			f, _, err := core.FinalizeStreamed(world, w.Fetch, sopts, nil)
			if err != nil {
				return err
			}
			return writeAndCheck("streamed (peak pass)", f, want)
		}
		if i == 0 {
			gogcStr, err = peakGCPercent(streamedPass)
			b.record(1, err)
		}
		mb, err = peakLiveMB(gogcStr, streamedPass)
		b.record(1, err)
		strs = append(strs, mb)
	}
	return median(ins), median(strs), nil
}

// writeAndCheck serializes f and requires the bytes to equal want.
func writeAndCheck(what string, f *trace.File, want []byte) error {
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return err
	}
	return checkIdentical(what, buf.Bytes(), want)
}
