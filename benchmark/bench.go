package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/spill"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/mpi"
)

type config struct {
	seed    int64
	seconds float64
	traced  bool
	work    string
}

// inputs is how many simulator noise seeds one run cycles through.
// Set-up captures each of them once (setup_s is the median capture);
// round i runs input i mod inputs. The noise seed sets virtual
// durations, so a run's trace size is a median over several timing
// inputs rather than the size of one.
const inputs = 5

// bench is one benchmark process: a workload, its reference capture,
// and the operation accounting.
type bench struct {
	w       workload
	seed    int64
	opts    core.Options
	scratch string
	rng     *rand.Rand
	refs    []*reference     // one capture per input
	input   int              // the input the current round runs
	ref     *reference       // refs[input]
	spans   *spanLog         // non-nil only on span-recorded rounds
	selfNs  map[string]int64 // span self times of the traced run
	// stealPct is the share of the VM's CPU time the hypervisor stole
	// during the timed rounds (0 where /proc/stat has no steal field).
	stealPct float64

	counting          bool // false during the warm-up round
	attempted, failed int
	wrong             bool
	errs              int
	runSeq            int
}

// roundResult is what one round of the pipeline measured. Each phase
// has a wall-clock time (…S, …Ms) and a process CPU time (…CPU).
type roundResult struct {
	wallS                      float64
	tracedS, tracedCPU         float64
	snapshotS                  float64
	collectS, collectCPU       float64
	decodeS, decodeCPU         float64
	finalizeS, finalizeCPU     []float64 // one sample per finalize
	streamedS, streamedCPU     []float64
	calls, decoded             int64
	sent                       int
	runMs, runCPUms, ackMs     []float64 // per collected run; per snapshot sent
	waitMs                     []float64
	allocMB, gcCycles, mallocs float64
	spans                      bool
	input                      int // index of the input the round ran
	snaps                      []*core.Snapshot
	file                       *trace.File
	data                       []byte
}

func newBench(w workload, cfg config) *bench {
	return &bench{
		w:    w,
		seed: cfg.seed,
		opts: core.Options{TimingMode: w.timingMode(), TimingBase: 1.2},
		rng:  rand.New(rand.NewSource(cfg.seed)),
	}
}

// simSeed drives the simulator's virtual-time noise model for the
// current input; distinct benchmark seeds get disjoint simulator seeds.
func (b *bench) simSeed() int64 { return b.seed*inputs + int64(b.input) + 1 }

// useInput selects the input the next round runs.
func (b *bench) useInput(i int) {
	b.input = i % len(b.refs)
	b.ref = b.refs[b.input]
}

// readSteal returns the VM's stolen CPU time in seconds, summed over
// its CPUs, from the first line of /proc/stat (USER_HZ = 100 ticks per
// second). It returns 0 where the file or the field is missing.
func readSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// record accounts n operations that ended with err (nil: success).
func (b *bench) record(n int, err error) {
	if err == nil {
		if b.counting {
			b.attempted += n
		}
		return
	}
	if isCheckError(err) {
		b.wrong = true
	}
	if b.errs < 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", b.w.name, err)
	}
	b.errs++
	if b.counting {
		b.attempted += n
		b.failed += n
	}
}

var errSkipped = errors.New("not run: an earlier step of the round failed")

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// stamp is a point in wall-clock time and in the process's CPU time.
// CPU time (user + system, all threads) excludes the time the
// hypervisor steals from the VM's vCPUs, which on a shared machine is
// most of the run-to-run variance of wall-clock readings.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the wall-clock and CPU seconds elapsed since s.
func (s stamp) since() (wallS, cpuS float64) {
	n := now()
	return n.wall.Sub(s.wall).Seconds(), (n.cpu - s.cpu).Seconds()
}

func run(w workload, cfg config) (result, error) {
	b := newBench(w, cfg)
	b.scratch = filepath.Join(cfg.work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.scratch)

	// Set-up: one capture run per input.
	var setups, setupsCPU []float64
	for i := 0; i < inputs; i++ {
		b.input = i
		runtime.GC()
		t0 := now()
		ref, err := b.capture()
		if err != nil {
			return result{}, err
		}
		wall, cpu := t0.since()
		setups = append(setups, wall)
		setupsCPU = append(setupsCPU, cpu)
		b.refs = append(b.refs, ref)
	}

	// One untimed warm-up round, then whole rounds until the budget is
	// spent. With --trace 1, even rounds record spans and odd rounds do
	// not, so the recorder's own cost shows as the difference.
	b.useInput(0)
	b.round()
	b.counting = true
	var log *spanLog
	if cfg.traced {
		log = newSpanLog()
	}
	var rounds []*roundResult
	kept := make([]*roundResult, inputs)
	steal0 := readSteal()
	start := time.Now()
	for len(rounds) == 0 || since(start) < cfg.seconds {
		b.spans = nil
		if log != nil && len(rounds)%2 == 0 {
			b.spans = log
		}
		b.useInput(len(rounds))
		rr := b.round()
		rr.spans = b.spans != nil
		fmt.Fprintf(os.Stderr, "round %d (wall/cpu s): traced %.4f/%.4f finalize %.4f/%.4f streamed %.4f/%.4f collect %.4f/%.4f decode %.4f/%.4f\n",
			len(rounds), rr.tracedS, rr.tracedCPU, median(rr.finalizeS), median(rr.finalizeCPU),
			median(rr.streamedS), median(rr.streamedCPU), rr.collectS, rr.collectCPU, rr.decodeS, rr.decodeCPU)
		b.spans = nil
		// The latest round of each input keeps its snapshots: the
		// peak-heap passes run on all of them and the per-layer pass on
		// input 0, so they see the same inputs however many rounds fit.
		if k := kept[rr.input]; k != nil {
			k.snaps, k.file = nil, nil
		}
		kept[rr.input] = rr
		rounds = append(rounds, rr)
	}
	loop := since(start)
	b.stealPct = (readSteal() - steal0) / (loop * float64(runtime.NumCPU())) * 100
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d rounds in %.1fs, %.1f%% of the CPU time stolen\n",
		w.name, cfg.seed, len(rounds), loop, b.stealPct)
	if log != nil {
		b.selfNs = log.selfTimes()
		dir := filepath.Join(cfg.work, "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		if err := log.writeChrome(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: spans written to %s\n", path)
	}

	res := result{Metrics: map[string]metric{}}
	if cfg.traced {
		put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		if err := b.layerMetrics(rounds, kept[0], setups, put); err != nil {
			return result{}, err
		}
		if err := b.peakMetrics(rounds, kept, put); err != nil {
			return result{}, err
		}
	} else {
		b.endToEndMetrics(rounds, kept, setupsCPU, res.Metrics)
	}
	res.Correct = !b.wrong
	res.Attempted, res.Failed = b.attempted, b.failed
	return res, nil
}

// round runs the whole pipeline once on fresh inputs: traced run with
// in-memory finalize (plus reps-1 more finalizes of the same
// snapshots), reps streamed finalizes, collector ingest, decode.
func (b *bench) round() *roundResult {
	rr := &roundResult{input: b.input}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	reps := b.w.reps
	if b.tracedRun(rr) {
		for i := 1; i < reps; i++ {
			b.finalize(rr)
		}
		for i := 0; i < reps; i++ {
			b.streamed(rr)
		}
		b.collect(rr)
		b.decode(rr)
	} else {
		b.record(2*reps-1+b.w.collectRuns*(b.w.procs+1)+b.w.procs, errSkipped)
	}
	rr.wallS = since(t0)
	runtime.ReadMemStats(&m1)
	rr.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rr.gcCycles = float64(m1.NumGC - m0.NumGC)
	rr.mallocs = float64(m1.Mallocs - m0.Mallocs)
	return rr
}

// tracedRun is what a user of local tracing waits for: the application
// under a tracer on every rank, then the in-memory finalize into trace
// bytes. Two operations: the traced run and the finalize.
func (b *bench) tracedRun(rr *roundResult) bool {
	w := b.w
	body, err := w.body()
	if err != nil {
		b.record(2, err)
		return false
	}
	runtime.GC()
	op := b.spans.begin("traced_run", 0, 0)
	t0 := now()
	tracers := make([]*core.Tracer, w.procs)
	ics := make([]mpi.Interceptor, w.procs)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, b.opts)
		ics[i] = tracers[i]
	}
	s := b.spans.begin("mpi.run", op, 0)
	err = mpi.RunOpt(w.procs, mpi.Options{Interceptors: ics, Seed: b.simSeed()}, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	b.spans.end(s)
	if err != nil {
		b.spans.end(op)
		b.record(2, fmt.Errorf("traced run: %w", err))
		return false
	}
	s = b.spans.begin("core.snapshot", op, 0)
	t1 := time.Now()
	snaps := make([]*core.Snapshot, w.procs)
	par.For(w.procs, par.Workers(0), func(i int) { snaps[i] = tracers[i].Snapshot() })
	rr.snapshotS = since(t1)
	b.spans.end(s)

	t2 := now()
	s = b.spans.begin("core.finalize", op, 0)
	f, st := core.FinalizeSnapshots(snaps, b.opts, nil)
	b.spans.end(s)
	s = b.spans.begin("trace.write", op, 0)
	var buf bytes.Buffer
	_, werr := f.WriteTo(&buf)
	b.spans.end(s)
	fw, fc := t2.since()
	rr.finalizeS, rr.finalizeCPU = append(rr.finalizeS, fw), append(rr.finalizeCPU, fc)
	rr.tracedS, rr.tracedCPU = t0.since()
	b.spans.end(op)

	var cerr error
	for r, sn := range snaps {
		if sn.Calls != b.ref.counts[r] {
			cerr = checkErrorf("rank %d traced %d calls, the capture saw %d", r, sn.Calls, b.ref.counts[r])
			break
		}
	}
	b.record(1, cerr)
	if werr != nil {
		werr = fmt.Errorf("write trace: %w", werr)
	}
	b.record(1, werr)
	if cerr != nil || werr != nil {
		return false
	}
	rr.calls = st.TotalCalls
	rr.snaps, rr.file, rr.data = snaps, f, buf.Bytes()
	return true
}

// finalize repeats the in-memory finalize of the round's snapshots; the
// trace must be byte-identical to the traced run's.
func (b *bench) finalize(rr *roundResult) {
	runtime.GC()
	op := b.spans.begin("finalize", 0, 0)
	t0 := now()
	s := b.spans.begin("core.finalize", op, 0)
	f, _ := core.FinalizeSnapshots(rr.snaps, b.opts, nil)
	b.spans.end(s)
	s = b.spans.begin("trace.write", op, 0)
	var buf bytes.Buffer
	_, err := f.WriteTo(&buf)
	b.spans.end(s)
	fw, fc := t0.since()
	rr.finalizeS, rr.finalizeCPU = append(rr.finalizeS, fw), append(rr.finalizeCPU, fc)
	b.spans.end(op)
	if err == nil {
		err = checkIdentical("repeated in-memory", buf.Bytes(), rr.data)
	}
	b.record(1, err)
}

// streamed finalizes the same snapshots through an on-disk spill with
// a bounded resident batch; the trace must be byte-identical.
func (b *bench) streamed(rr *roundResult) {
	dir := filepath.Join(b.scratch, "spill")
	runtime.GC()
	op := b.spans.begin("finalize_streamed", 0, 0)
	t0 := now()
	data, err := b.spillFinalize(dir, rr.snaps, op)
	sw, sc := t0.since()
	rr.streamedS, rr.streamedCPU = append(rr.streamedS, sw), append(rr.streamedCPU, sc)
	b.spans.end(op)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err == nil {
		err = checkIdentical("streamed", data, rr.data)
	}
	b.record(1, err)
}

func (b *bench) spillFinalize(dir string, snaps []*core.Snapshot, parent int) ([]byte, error) {
	s := b.spans.begin("spill.add", parent, 0)
	w, err := spill.NewWriter(dir, "bench", len(snaps), b.opts)
	if err != nil {
		b.spans.end(s)
		return nil, err
	}
	defer w.Close()
	for _, sn := range snaps {
		if err := w.Add(sn); err != nil {
			b.spans.end(s)
			return nil, err
		}
	}
	b.spans.end(s)
	s = b.spans.begin("core.finalize_streamed", parent, 0)
	opts := b.opts
	opts.MaxResidentSnapshots = b.w.spillBatch()
	f, _, err := core.FinalizeStreamed(len(snaps), w.Fetch, opts, nil)
	b.spans.end(s)
	if err != nil {
		return nil, err
	}
	if err := w.Finish("finalized", ""); err != nil {
		return nil, err
	}
	s = b.spans.begin("trace.write", parent, 0)
	var buf bytes.Buffer
	_, err = f.WriteTo(&buf)
	b.spans.end(s)
	return buf.Bytes(), err
}

// senders is the closed-loop client count: each sender waits for its
// ack before sending again, and there are no more of them than cores.
func senders() int { return min(2, runtime.NumCPU()) }

// collect pushes the round's snapshots through a fresh loopback
// collector (journal on, fsync off) as collectRuns runs.
func (b *bench) collect(rr *roundResult) {
	perRun := b.w.procs + 1
	dir := filepath.Join(b.scratch, "collect")
	srv, err := collect.Start(collect.Config{
		Listen:      "127.0.0.1:0",
		OutDir:      dir,
		JournalSync: collect.SyncOff,
		Retention:   -1,
	})
	if err != nil {
		b.record(b.w.collectRuns*perRun, fmt.Errorf("start collector: %w", err))
		return
	}
	defer func() {
		srv.Close()
		os.RemoveAll(dir)
	}()
	runtime.GC()
	t0 := now()
	for i := 0; i < b.w.collectRuns; i++ {
		b.collectRun(srv.Addr(), rr)
	}
	rr.collectS, rr.collectCPU = t0.since()
}

// collectRun sends every snapshot of the round as one run, in a seeded
// arrival order, and waits for the finalized trace. Operations: one per
// snapshot sent, one for the run.
func (b *bench) collectRun(addr string, rr *roundResult) {
	procs := b.w.procs
	b.runSeq++
	var retries atomic.Int64
	c := &collect.Client{
		Addr: addr,
		Run: collect.RunInfo{
			RunID:      "bench-" + strconv.Itoa(b.runSeq),
			WorldSize:  procs,
			Epoch:      uint64(b.runSeq),
			TimingMode: b.opts.TimingMode,
			TimingBase: b.opts.TimingBase,
		},
		// The client logs exactly when it retries a send.
		Logf: func(string, ...any) { retries.Add(1) },
	}
	order := b.rng.Perm(procs)
	op := b.spans.begin("collect_run", 0, 0)
	t0 := now()
	lat := make([]float64, procs)
	errs := make([]error, procs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < senders(); k++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= procs {
					return
				}
				s := b.spans.begin("collect.send", op, lane)
				ts := time.Now()
				errs[i] = c.SendSnapshot(rr.snaps[order[i]])
				lat[i] = since(ts) * 1e3
				b.spans.end(s)
			}
		}(k + 1)
	}
	wg.Wait()
	tAck := time.Now()

	var sendErr error
	lost := 0
	for i, err := range errs {
		if err != nil {
			lost++
			sendErr = err
			continue
		}
		rr.ackMs = append(rr.ackMs, lat[i])
	}
	// A retried send that got through still counts as a failed one.
	bad := min(procs, lost+int(retries.Load()))
	if sendErr == nil && bad > 0 {
		sendErr = fmt.Errorf("%d snapshot sends were retried", bad)
	}
	b.record(procs-bad, nil)
	b.record(bad, sendErr)
	rr.sent += procs
	if lost > 0 {
		// A rank never arrived: the run cannot finalize.
		b.spans.end(op)
		b.record(1, fmt.Errorf("run %s: %w", c.Run.RunID, sendErr))
		return
	}
	s := b.spans.begin("collect.wait", op, 0)
	data, err := c.WaitTrace()
	b.spans.end(s)
	rw, rc := t0.since()
	rr.runMs, rr.runCPUms = append(rr.runMs, rw*1e3), append(rr.runCPUms, rc*1e3)
	rr.waitMs = append(rr.waitMs, since(tAck)*1e3)
	b.spans.end(op)
	if err == nil {
		err = checkIdentical("collected", data, rr.data)
	}
	b.record(1, err)
}

// decode reconstructs every rank of the round's trace and checks it
// against the capture. Operations: one per rank.
func (b *bench) decode(rr *roundResult) {
	full := map[int]*stream{}
	for _, s := range b.ref.streams {
		full[s.rank] = s
	}
	runtime.GC()
	op := b.spans.begin("decode", 0, 0)
	t0 := now()
	for r := 0; r < b.w.procs; r++ {
		s := b.spans.begin("core.decode_rank", op, 0)
		calls, err := core.DecodeRank(rr.file, r)
		b.spans.end(s)
		if err == nil {
			err = checkCalls(b.ref, r, calls)
		}
		if st := full[r]; err == nil && st != nil && b.w.lossy {
			err = checkDurations(st, calls, rr.file.TimingBase)
		}
		b.record(1, err)
		rr.decoded += int64(len(calls))
	}
	b.spans.end(op)
	rr.decodeS, rr.decodeCPU = t0.since()
}
