package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/spill"
	"github.com/hpcrepro/pilgrim/internal/timing"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
	"github.com/hpcrepro/pilgrim/mpi"
)

// layerRepeats is how many timed passes each per-layer measurement
// makes (after one untimed warm-up pass); the median is reported.
const layerRepeats = 3

type putFunc func(name string, v float64, unit string)

// timed runs prepare+f once untimed, then layerRepeats times timed
// after a runtime.GC(), and returns the median wall time of f and the
// median number of heap allocations f made.
func timed(prepare func() error, f func() error) (time.Duration, float64, error) {
	var durs, allocs []float64
	for i := 0; i <= layerRepeats; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		if i > 0 {
			durs = append(durs, float64(d))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		}
	}
	return time.Duration(median(durs)), median(allocs), nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }
func ms(d time.Duration) float64           { return float64(d.Nanoseconds()) / 1e6 }

// replay is one captured rank's stream after the signature stage.
type replay struct {
	s     *stream
	arena []byte // every signature, back to back
	ends  []int  // end offset of call i's signature in arena
	durs  []int64
	funcs []mpispec.FuncID
	ts    []int64
	te    []int64
	terms []int32
}

func (r *replay) sig(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.arena[start:r.ends[i]]
}

// encode runs the signature encoder over the captured stream, answering
// its out-of-band agreements from the capture log.
func (r *replay) encode() error {
	oob := &oobReplay{log: r.s.oob}
	enc := sig.NewEncoder(r.s.rank, oob)
	var buf []byte
	r.arena, r.ends = r.arena[:0], r.ends[:0]
	for i := range r.s.events {
		e := &r.s.events[i]
		switch e.kind {
		case evPost:
			buf = enc.EncodeTo(buf[:0], &e.rec)
			r.arena = append(r.arena, buf...)
			r.ends = append(r.ends, len(r.arena))
		case evAlloc:
			enc.MemAlloc(e.addr, e.size, e.dev)
		case evFree:
			enc.MemFree(e.addr)
		}
	}
	return oob.err
}

// replayLayers measures each tracer layer on its own: the captured
// streams go through sig encode, then CST add, then Sequitur append,
// then the timing compressor, each stage timed over whole streams.
// Finally the whole Tracer.Post path runs on the same streams, and its
// grammar must match the round's snapshot of that rank.
func (b *bench) replayLayers(put putFunc, kept *roundResult) error {
	var reps []*replay
	calls := 0
	for _, s := range b.ref.streams {
		r := &replay{s: s}
		for i := range s.events {
			if e := &s.events[i]; e.kind == evPost {
				r.durs = append(r.durs, e.rec.TEnd-e.rec.TStart)
				r.funcs = append(r.funcs, e.rec.Func)
				r.ts = append(r.ts, e.rec.TStart)
				r.te = append(r.te, e.rec.TEnd)
			}
		}
		r.terms = make([]int32, len(r.durs))
		calls += len(r.durs)
		reps = append(reps, r)
	}

	// Signature encode. The first pass sizes the arena, so the timed
	// passes append into preallocated memory.
	for _, r := range reps {
		if err := r.encode(); err != nil {
			return fmt.Errorf("replay rank %d: %w", r.s.rank, err)
		}
	}
	sigBytes := 0
	for _, r := range reps {
		sigBytes += len(r.arena)
	}
	d, allocs, err := timed(nil, func() error {
		for _, r := range reps {
			if err := r.encode(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("sig.encode_ns_per_call", nsPer(d, calls), "ns")
	put("sig.allocs_per_call", allocs/float64(max(calls, 1)), "count")
	put("sig.bytes_per_call", float64(sigBytes)/float64(max(calls, 1)), "bytes")

	// CST add.
	tables := make([]*cst.Table, len(reps))
	d, _, err = timed(func() error {
		for i := range tables {
			tables[i] = cst.New()
		}
		return nil
	}, func() error {
		for k, r := range reps {
			t := tables[k]
			for i := range r.durs {
				r.terms[i] = t.Add(r.sig(i), r.durs[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	entries := 0
	for _, t := range tables {
		entries += t.Len()
	}
	put("cst.add_ns_per_call", nsPer(d, calls), "ns")
	put("cst.miss_ratio", float64(entries)/float64(max(calls, 1)), "ratio")

	// Sequitur append.
	grammars := make([]*sequitur.Grammar, len(reps))
	d, allocs, err = timed(func() error {
		for i := range grammars {
			grammars[i] = sequitur.New()
		}
		return nil
	}, func() error {
		for k, r := range reps {
			g := grammars[k]
			for _, t := range r.terms {
				g.Append(t)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rules := 0
	for _, g := range grammars {
		rules += g.Stats().Rules
	}
	put("sequitur.append_ns_per_call", nsPer(d, calls), "ns")
	put("sequitur.allocs_per_call", allocs/float64(max(calls, 1)), "count")
	put("sequitur.rules", float64(rules), "count")

	// Timing: per-call record, then reconstruction from the two timing
	// grammars. Measured on every workload's stream, lossy or not.
	comps := make([]*timing.Compressor, len(reps))
	base := b.opts.TimingBase
	d, _, err = timed(func() error {
		for i := range comps {
			comps[i] = timing.New(base)
		}
		return nil
	}, func() error {
		for k, r := range reps {
			c := comps[k]
			for i, t := range r.terms {
				c.Record(t, r.funcs[i], r.ts[i], r.te[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("timing.record_ns_per_call", nsPer(d, calls), "ns")
	durSeqs := make([][]int32, len(reps))
	intSeqs := make([][]int32, len(reps))
	for k := range reps {
		durSeqs[k] = comps[k].DurationGrammar().Expand(0)
		intSeqs[k] = comps[k].IntervalGrammar().Expand(0)
	}
	d, _, err = timed(nil, func() error {
		for k, r := range reps {
			if _, err := timing.NewReconstructor(base).Series(r.terms, r.funcs, durSeqs[k], intSeqs[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("timing.reconstruct_ns_per_call", nsPer(d, calls), "ns")

	// The whole Tracer.Post path on the same streams.
	tracers := make([]*core.Tracer, len(reps))
	oobs := make([]*oobReplay, len(reps))
	d, _, err = timed(func() error {
		for k, r := range reps {
			oobs[k] = &oobReplay{log: r.s.oob}
			tracers[k] = core.NewTracer(r.s.rank, oobs[k], b.opts)
		}
		return nil
	}, func() error {
		for k, r := range reps {
			tr := tracers[k]
			for i := range r.s.events {
				e := &r.s.events[i]
				switch e.kind {
				case evPost:
					tr.Post(&e.rec)
				case evAlloc:
					tr.MemAlloc(e.addr, e.size, e.dev)
				case evFree:
					tr.MemFree(e.addr)
				}
			}
			if oobs[k].err != nil {
				return oobs[k].err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.post_ns_per_call", nsPer(d, calls), "ns")
	for k, r := range reps {
		got := tracers[k].Snapshot().Grammar
		if !slices.Equal(got, kept.snaps[r.s.rank].Grammar) {
			b.record(0, checkErrorf("replayed rank %d builds a different grammar than the traced run", r.s.rank))
		}
	}
	return nil
}

// untracedRate runs the application with no tracer attached and
// returns calls per second (the denominator of the overhead figure).
func (b *bench) untracedRate(calls int64) (float64, error) {
	body, err := b.w.body()
	if err != nil {
		return 0, err
	}
	d, _, err := timed(nil, func() error {
		return mpi.RunOpt(b.w.procs, mpi.Options{Seed: b.simSeed()}, body)
	})
	if err != nil {
		return 0, err
	}
	return float64(calls) / d.Seconds(), nil
}

// finalizeLayers times the finalize stages, the trace codec, the spill
// and the wire codec on the kept round's snapshots.
func (b *bench) finalizeLayers(put putFunc, kept *roundResult) error {
	snaps, f, want := kept.snaps, kept.file, kept.data
	workers := par.Workers(0)
	tables := func() []*cst.Table {
		ts := make([]*cst.Table, len(snaps))
		for i, s := range snaps {
			ts[i] = s.Table
		}
		return ts
	}
	var merged cst.Merged
	d, _, err := timed(nil, func() error {
		merged = cst.MergePairwiseN(tables(), workers)
		return nil
	})
	if err != nil {
		return err
	}
	put("cst.merge_ms", ms(d), "ms")
	d, _, err = timed(func() error {
		merged = cst.MergePairwiseN(tables(), workers)
		return nil
	}, func() error {
		pf, _ := core.FinalizePremerged(snaps, merged, 0, b.opts, nil)
		var buf bytes.Buffer
		if _, err := pf.WriteTo(&buf); err != nil {
			return err
		}
		if err := checkIdentical("premerged", buf.Bytes(), want); err != nil {
			b.record(0, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.premerged_ms", ms(d), "ms")

	d, _, err = timed(nil, func() error {
		_, err := f.WriteTo(&bytes.Buffer{})
		return err
	})
	if err != nil {
		return err
	}
	put("trace.write_ms", ms(d), "ms")
	d, _, err = timed(nil, func() error {
		_, err := trace.Read(bytes.NewReader(want))
		return err
	})
	if err != nil {
		return err
	}
	put("trace.read_ms", ms(d), "ms")
	put("sequitur.unique_grammars", float64(len(f.Grammars)), "count")
	cstB, cfgB, durB, intB := f.SectionSizes()
	put("trace.cst_bytes", float64(cstB), "bytes")
	put("trace.cfg_bytes", float64(cfgB), "bytes")
	put("trace.dur_bytes", float64(durB), "bytes")
	put("trace.int_bytes", float64(intB), "bytes")

	// Decode, split into grammar expansion and signature decode.
	terms := make([][]int32, f.NumRanks)
	calls := 0
	d, _, err = timed(nil, func() error {
		calls = 0
		for r := range terms {
			t, err := f.Terms(r)
			if err != nil {
				return err
			}
			terms[r] = t
			calls += len(t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("trace.expand_ns_per_call", nsPer(d, calls), "ns")
	d, _, err = timed(nil, func() error {
		for _, ts := range terms {
			for _, t := range ts {
				if _, err := sig.Decode(f.CST.Sig(t)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("sig.decode_ns_per_call", nsPer(d, calls), "ns")

	// Spill: add every snapshot, then fetch them back in K batches.
	dir := filepath.Join(b.scratch, "spill-layers")
	defer os.RemoveAll(dir)
	var w *spill.Writer
	d, _, err = timed(func() error {
		if w != nil {
			w.Close()
		}
		return nil
	}, func() error {
		var err error
		w, err = spill.NewWriter(dir, "layers", len(snaps), b.opts)
		if err != nil {
			return err
		}
		for _, s := range snaps {
			if err := w.Add(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer w.Close()
	put("spill.add_ms", ms(d), "ms")
	k := b.w.spillBatch()
	d, _, err = timed(nil, func() error {
		for start := 0; start < len(snaps); start += k {
			if _, err := w.Fetch(start, min(k, len(snaps)-start)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("spill.fetch_ms", ms(d), "ms")
	st, err := os.Stat(filepath.Join(dir, "frames.jnl"))
	if err != nil {
		return err
	}
	put("spill.bytes", float64(st.Size()), "bytes")

	// Wire codec, per snapshot.
	bodies := make([][]byte, len(snaps))
	wireBytes := 0
	d, _, err = timed(nil, func() error {
		wireBytes = 0
		for i, s := range snaps {
			bodies[i] = wire.EncodeSnapshot(s)
			wireBytes += len(bodies[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(snaps))
	put("wire.encode_us_per_snapshot", float64(d.Nanoseconds())/1e3/n, "us")
	put("wire.bytes_per_snapshot", float64(wireBytes)/n, "bytes")
	d, _, err = timed(nil, func() error {
		for _, body := range bodies {
			if _, err := wire.DecodeSnapshot(body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("wire.decode_us_per_snapshot", float64(d.Nanoseconds())/1e3/n, "us")
	return nil
}

// spanNames are the spans the benchmark records; each one's self time
// per round is a per-layer metric.
var spanNames = []string{
	"traced_run", "mpi.run", "core.snapshot", "finalize", "core.finalize", "trace.write",
	"finalize_streamed", "spill.add", "core.finalize_streamed",
	"collect_run", "collect.send", "collect.wait",
	"decode", "core.decode_rank",
}

// layerMetrics reports the per-layer metrics of a span-traced run, and
// the wall-clock counterparts of the end-to-end metrics. The layer
// passes run on kept's snapshots and its input's capture. setupWall
// holds the wall seconds of each set-up capture.
func (b *bench) layerMetrics(rounds []*roundResult, kept *roundResult, setupWall []float64, put putFunc) error {
	if kept.snaps == nil {
		return fmt.Errorf("the kept round failed; no per-layer metrics")
	}
	b.useInput(kept.input)
	if err := b.replayLayers(put, kept); err != nil {
		return err
	}
	if err := b.finalizeLayers(put, kept); err != nil {
		return err
	}
	put("core.snapshot_ms", median(perRound(rounds, func(r *roundResult) float64 { return r.snapshotS * 1e3 })), "ms")

	rate, err := b.untracedRate(kept.calls)
	if err != nil {
		return err
	}
	traced := median(perRound(rounds, func(r *roundResult) float64 { return float64(r.calls) / r.tracedS }))
	put("mpi.untraced_calls_per_s", rate, "1/s")
	put("mpi.overhead_pct", (rate/traced-1)*100, "%")

	put("wall.setup_s", median(setupWall), "s")
	put("wall.traced_calls_per_s", traced, "1/s")
	put("wall.finalize_s", median(pooled(rounds, func(r *roundResult) []float64 { return r.finalizeS })), "s")
	put("wall.finalize_streamed_s", median(pooled(rounds, func(r *roundResult) []float64 { return r.streamedS })), "s")
	put("wall.decode_calls_per_s", median(perRound(rounds, func(r *roundResult) float64 { return float64(r.decoded) / r.decodeS })), "1/s")
	put("wall.collect_snapshots_per_s", median(perRound(rounds, func(r *roundResult) float64 { return float64(r.sent) / r.collectS })), "1/s")
	put("vm.steal_pct", b.stealPct, "%")

	acks := pooled(rounds, func(r *roundResult) []float64 { return r.ackMs })
	runsMs := pooled(rounds, func(r *roundResult) []float64 { return r.runMs })
	put("collect.run_p50_ms", median(runsMs), "ms")
	put("collect.ack_p50_ms", quantile(acks, 0.5), "ms")
	put("collect.ack_p95_ms", quantile(acks, 0.95), "ms")
	put("collect.wait_p50_ms", median(pooled(rounds, func(r *roundResult) []float64 { return r.waitMs })), "ms")
	put("collect.run_p95_ms", quantile(runsMs, 0.95), "ms")

	put("go.alloc_mb", median(perRound(rounds, func(r *roundResult) float64 { return r.allocMB })), "MB")
	put("go.gc_cycles", median(perRound(rounds, func(r *roundResult) float64 { return r.gcCycles })), "count")
	put("go.allocs_per_snapshot", median(perRound(rounds, func(r *roundResult) float64 {
		return r.mallocs / float64(b.w.procs)
	})), "count")

	// Span self times, averaged over the span-recorded rounds, and the
	// recorder's own cost: span-recorded vs plain round wall time.
	var on, off []float64
	self := map[string]float64{}
	for _, r := range rounds {
		if r.spans {
			on = append(on, r.wallS)
		} else {
			off = append(off, r.wallS)
		}
	}
	for name, ns := range b.selfNs {
		self[name] = float64(ns) / 1e6 / float64(max(len(on), 1))
	}
	for _, name := range spanNames {
		put("self_ms."+name, self[name], "ms")
	}
	overhead := 0.0
	if len(off) > 0 {
		overhead = (median(on)/median(off) - 1) * 100
	}
	put("bench.span_overhead_pct", overhead, "%")
	return nil
}
