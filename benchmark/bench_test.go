package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsSmall runs every workload shrunk, in both modes, for a
// single round: every correctness check runs, nothing may fail, and
// the metrics printed must be exactly the ones BENCHMARK.json declares.
func TestWorkloadsSmall(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !equalStrings(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w.small(), config{seed: 3, traced: traced, work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// corrupt returns a copy of a lossy trace with two CST entries of
// different MPI functions swapped and every duration bin raised by
// three: it still parses and decodes, but to the wrong calls and the
// wrong durations.
func corrupt(t *testing.T, f *trace.File) *trace.File {
	t.Helper()
	funcOf := func(term int32) int {
		d, err := sig.Decode(f.CST.Sig(term))
		if err != nil {
			t.Fatal(err)
		}
		return int(d.Func)
	}
	k := int32(-1)
	for term := int32(1); term < int32(f.CST.Len()); term++ {
		if funcOf(term) != funcOf(0) {
			k = term
			break
		}
	}
	if k < 0 {
		t.Fatal("trace has a single MPI function; nothing to swap")
	}
	table := cst.New()
	for term := int32(0); term < int32(f.CST.Len()); term++ {
		src := term
		switch term {
		case 0:
			src = k
		case k:
			src = 0
		}
		table.Add(f.CST.Sig(src), f.CST.AvgDuration(src))
	}
	bad := *f
	bad.CST = table
	bad.PackedDur = nil
	bad.DurGrammars = make([]sequitur.Serialized, len(f.DurGrammars))
	for i, g := range f.DurGrammars {
		shifted := sequitur.New()
		for _, bin := range g.Expand(0) {
			shifted.Append(bin + 3)
		}
		bad.DurGrammars[i] = sequitur.Serialized(shifted.Serialize())
	}
	return &bad
}

// TestChecksRejectCorruptTrace feeds one deliberately corrupted trace
// to every check: each must reject it, and every operation that sees it
// must count as failed and mark the run incorrect.
func TestChecksRejectCorruptTrace(t *testing.T) {
	w, _ := workloadByName("trace_lossy")
	w = w.small()
	b := newBench(w, config{seed: 5})
	b.scratch = t.TempDir()
	ref, err := b.capture()
	if err != nil {
		t.Fatal(err)
	}
	b.refs = []*reference{ref}
	b.useInput(0)
	rr := &roundResult{}
	if !b.tracedRun(rr) || b.wrong {
		t.Fatal("traced run failed on the clean trace")
	}
	for _, s := range ref.streams {
		calls, err := core.DecodeRank(rr.file, s.rank)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCalls(ref, s.rank, calls); err != nil {
			t.Fatalf("clean trace: %v", err)
		}
		if err := checkDurations(s, calls, rr.file.TimingBase); err != nil {
			t.Fatalf("clean trace: %v", err)
		}
	}

	bad := corrupt(t, rr.file)
	var buf bytes.Buffer
	if _, err := bad.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := checkIdentical("corrupt", buf.Bytes(), rr.data); !isCheckError(err) {
		t.Errorf("identity check accepted the corrupt trace (err %v)", err)
	}
	for _, s := range ref.streams {
		calls, err := core.DecodeRank(bad, s.rank)
		if err != nil {
			t.Fatalf("corrupt trace must still decode: %v", err)
		}
		if err := checkCalls(ref, s.rank, calls); !isCheckError(err) {
			t.Errorf("rank %d: call check accepted the corrupt trace (err %v)", s.rank, err)
		}
		if err := checkDurations(s, calls, bad.TimingBase); !isCheckError(err) {
			t.Errorf("rank %d: duration check accepted the corrupt trace (err %v)", s.rank, err)
		}
	}

	// The same trace as the round's in-memory result: the streamed
	// finalize, every collected run and every rank's decode must fail.
	rr.file, rr.data = bad, buf.Bytes()
	b.counting = true
	b.streamed(rr)
	b.collect(rr)
	b.decode(rr)
	wantFailed := 1 + w.collectRuns + w.procs
	wantAttempted := wantFailed + w.collectRuns*w.procs // the sends themselves succeed
	if !b.wrong || b.failed != wantFailed || b.attempted != wantAttempted {
		t.Fatalf("corrupt round: wrong=%v failed=%d attempted=%d, want wrong, %d failed of %d",
			b.wrong, b.failed, b.attempted, wantFailed, wantAttempted)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(ivs, 2, 25); got != 1+7+5 {
		t.Fatalf("covered = %d, want 13", got)
	}
}
