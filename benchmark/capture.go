package main

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// The capture is the benchmark's own record of what the application
// did, taken by an interceptor that sits in front of the tracer. Every
// rank contributes its call count and a hash of its FuncID sequence —
// the reference every decoded trace is checked against. Two ranks
// additionally keep their full event stream (CallRecords, MemAlloc and
// MemFree in order) and the results of the tracer's out-of-band
// agreements, so the per-layer pass can replay them through each
// tracer layer on its own.

const (
	evPost uint8 = iota
	evAlloc
	evFree
)

type event struct {
	kind uint8
	rec  mpispec.CallRecord // evPost
	addr uint64             // evAlloc, evFree
	size uint64             // evAlloc
	dev  int32              // evAlloc
}

const (
	oobAllreduce uint8 = iota
	oobIAllreduce
	oobPoll
)

type oobEntry struct {
	kind  uint8
	token int64
	done  bool
	v     int32
}

// stream is one rank's full capture.
type stream struct {
	rank   int
	events []event
	oob    []oobEntry
	calls  int
}

// reference is what one capture run recorded.
type reference struct {
	counts  []int64
	hashes  []uint64
	streams []*stream
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func hashFunc(h uint64, f mpispec.FuncID) uint64 {
	return (h ^ uint64(f)) * fnvPrime
}

// tee forwards every hook to the tracer, then records the event.
type tee struct {
	next  mpispec.Interceptor
	count *int64
	hash  *uint64
	s     *stream // nil unless this rank is fully captured
}

func (t *tee) Pre(rec *mpispec.CallRecord) { t.next.Pre(rec) }

func (t *tee) Post(rec *mpispec.CallRecord) {
	t.next.Post(rec)
	*t.count++
	*t.hash = hashFunc(*t.hash, rec.Func)
	if t.s != nil {
		t.s.events = append(t.s.events, event{kind: evPost, rec: copyRecord(rec)})
		t.s.calls++
	}
}

func (t *tee) MemAlloc(addr, size uint64, device int32) {
	t.next.MemAlloc(addr, size, device)
	if t.s != nil {
		t.s.events = append(t.s.events, event{kind: evAlloc, addr: addr, size: size, dev: device})
	}
}

func (t *tee) MemFree(addr uint64) {
	t.next.MemFree(addr)
	if t.s != nil {
		t.s.events = append(t.s.events, event{kind: evFree, addr: addr})
	}
}

func copyRecord(rec *mpispec.CallRecord) mpispec.CallRecord {
	c := *rec
	c.Args = make([]mpispec.Value, len(rec.Args))
	for i, v := range rec.Args {
		if v.Arr != nil {
			v.Arr = append([]int64(nil), v.Arr...)
		}
		c.Args[i] = v
	}
	return c
}

// oobRecorder forwards the tracer's out-of-band collectives to the rank
// and logs their results in call order.
type oobRecorder struct {
	inner mpispec.OOB
	s     *stream
}

func (o *oobRecorder) AllreduceMaxInt32(h int64, v int32) int32 {
	r := o.inner.AllreduceMaxInt32(h, v)
	o.s.oob = append(o.s.oob, oobEntry{kind: oobAllreduce, v: r})
	return r
}

func (o *oobRecorder) IAllreduceMaxInt32(h int64, v int32) int64 {
	tok := o.inner.IAllreduceMaxInt32(h, v)
	o.s.oob = append(o.s.oob, oobEntry{kind: oobIAllreduce, token: tok})
	return tok
}

func (o *oobRecorder) PollOOB(tok int64) (bool, int32) {
	done, r := o.inner.PollOOB(tok)
	o.s.oob = append(o.s.oob, oobEntry{kind: oobPoll, token: tok, done: done, v: r})
	return done, r
}

// oobReplay answers a replayed encoder's out-of-band collectives from a
// capture log. A request that departs from the log (a different kind at
// the same position, or one past its end) is recorded in err.
type oobReplay struct {
	log []oobEntry
	i   int
	err error
}

func (o *oobReplay) next(kind uint8) oobEntry {
	if o.i >= len(o.log) || o.log[o.i].kind != kind {
		if o.err == nil {
			o.err = fmt.Errorf("out-of-band call %d (kind %d) departs from the capture", o.i, kind)
		}
		return oobEntry{}
	}
	e := o.log[o.i]
	o.i++
	return e
}

func (o *oobReplay) AllreduceMaxInt32(int64, int32) int32 { return o.next(oobAllreduce).v }
func (o *oobReplay) IAllreduceMaxInt32(int64, int32) int64 {
	return o.next(oobIAllreduce).token
}
func (o *oobReplay) PollOOB(int64) (bool, int32) {
	e := o.next(oobPoll)
	return e.done, e.v
}

// captureRanks picks the fully captured ranks: rank 0 and one the seed
// chooses among the others.
func captureRanks(procs int, seed int64) []int {
	if procs < 2 {
		return []int{0}
	}
	other := 1 + int(uint64(seed)%uint64(procs-1))
	return []int{0, other}
}

// capture traces the application on the current input once, with the
// tee in front of every rank's tracer, and returns what the tee saw.
func (b *bench) capture() (*reference, error) {
	w := b.w
	body, err := w.body()
	if err != nil {
		return nil, err
	}
	ref := &reference{counts: make([]int64, w.procs), hashes: make([]uint64, w.procs)}
	full := map[int]*stream{}
	for _, r := range captureRanks(w.procs, b.seed) {
		s := &stream{rank: r}
		full[r] = s
		ref.streams = append(ref.streams, s)
	}
	tracers := make([]*core.Tracer, w.procs)
	ics := make([]mpi.Interceptor, w.procs)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, b.opts)
		ref.hashes[i] = fnvOffset
		ics[i] = &tee{next: tracers[i], count: &ref.counts[i], hash: &ref.hashes[i], s: full[i]}
	}
	err = mpi.RunOpt(w.procs, mpi.Options{Interceptors: ics, Seed: b.simSeed()}, func(p *mpi.Proc) {
		var oob mpispec.OOB = p
		if s := full[p.Rank()]; s != nil {
			oob = &oobRecorder{inner: p, s: s}
		}
		core.BindOOB(tracers[p.Rank()], oob)
		body(p)
	})
	if err != nil {
		return nil, fmt.Errorf("capture run: %w", err)
	}
	return ref, nil
}
