package main

import (
	"bufio"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/hpcrepro/pilgrim/internal/traceevent"
)

// spanLog keeps the traced run's spans in memory: one span around each
// call the benchmark makes into a layer, parented to the operation
// (traced run, finalize, collected run, decode) that made it. A nil
// *spanLog records nothing, so the untraced run pays one nil check per
// call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index+1 of the parent span; 0 for an operation
	lane       int // goroutine lane in the Chrome trace
	start, end int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its handle (index+1; 0 when disabled).
func (l *spanLog) begin(name string, parent, lane int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, parent: parent, lane: lane, start: now, end: -1})
	id := len(l.spans)
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].end = now
	l.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of it covered by its
// children (children on concurrent lanes may overlap; their union is
// subtracted once).
func (l *spanLog) selfTimes() map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := map[string]int64{}
	for i, s := range l.spans {
		if s.end < 0 {
			continue
		}
		self[s.name] += (s.end - s.start) - covered(children[i+1], s.start, s.end)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (l *spanLog) writeChrome(path string) error {
	doc := traceevent.NewDoc()
	doc.Add(traceevent.ProcessName(0, "pilgrim-benchmark"))
	lanes := map[int]bool{}
	for i, s := range l.spans {
		if s.end < 0 {
			continue
		}
		if !lanes[s.lane] {
			lanes[s.lane] = true
			name := "main"
			if s.lane > 0 {
				name = "sender"
			}
			doc.Add(traceevent.ThreadName(0, s.lane, name))
		}
		doc.Add(traceevent.Event{Name: s.name, Ph: "X", Ts: traceevent.US(s.start),
			Dur: traceevent.US(s.end - s.start), Tid: s.lane,
			Args: map[string]any{"id": i + 1, "parent": s.parent}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := doc.Write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
