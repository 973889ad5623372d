package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// peakCycles is how many GC cycles a peak-heap pass aims to span. The
// live heap is sampled at the end of every cycle, so the sampled peak
// can miss the true one by at most what f allocates between two
// cycles: about 1/peakCycles of its allocation.
const peakCycles = 200

// peakGCPercent runs f once and returns the GC percent at which f would
// span about peakCycles GC cycles.
func peakGCPercent(f func() error) (int, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := f(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&m1)
	// The runtime starts a cycle once the heap has grown by GOGC % of
	// the live heap, and never below GOGC % of 4 MB.
	step := (m1.TotalAlloc - m0.TotalAlloc) / peakCycles
	return min(max(int(100*step/max(m0.HeapAlloc, 4<<20)), 1), 100), nil
}

// peakLiveMB runs f at GC percent gogc and returns the largest live
// heap, in MB, that any GC cycle during f marked: the process's live
// heap at f's peak, including what was live before f started. Sampling
// is driven by the GC cycles themselves (a finalizer re-armed every
// cycle reads the live-heap metric), not by a polling timer, so the
// reading does not depend on when a poll happens to land between two
// collections.
func peakLiveMB(gogc int, f func() error) (float64, error) {
	old := debug.SetGCPercent(gogc)
	defer debug.SetGCPercent(old)
	runtime.GC()
	p := &peakProbe{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	p.sample()
	p.arm()
	err := f()
	p.mu.Lock()
	peak := p.peak
	p.stopped = true
	p.mu.Unlock()
	return float64(peak) / (1 << 20), err
}

type peakProbe struct {
	mu      sync.Mutex
	samples []metrics.Sample
	peak    uint64
	stopped bool
}

// sentinel is a heap object with a finalizer: it becomes unreachable
// as soon as it is armed, so the next GC cycle runs its finalizer.
type sentinel struct {
	p   *peakProbe
	pad [64]byte
}

func (p *peakProbe) arm() {
	s := &sentinel{p: p}
	runtime.SetFinalizer(s, func(s *sentinel) {
		if s.p.sample() {
			s.p.arm()
		}
	})
}

// sample records the live heap of the latest GC cycle and reports
// whether sampling should continue.
func (p *peakProbe) sample() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	metrics.Read(p.samples)
	if v := p.samples[0].Value.Uint64(); v > p.peak {
		p.peak = v
	}
	return true
}
