package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer
// (the daemons themselves are not instrumented). They are kept in memory
// and written out when the run ends.

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, which is how
// tracing is off.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id returns a fresh span or trace identifier (never 0).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span; start and end are wall-clock readings.
func (t *tracer) record(trace, id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of parent's interval the union of the
// children's intervals covers, counting overlaps among children once and
// clipping children to the parent.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent, children)
}

// selfTotal sums, over every span named root, its duration and its self
// time with respect to its direct children.
func selfTotal(spans []span, root string) (total, self int64) {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Name == root {
			total += s.dur()
			self += selfTime(s, kids[s.ID])
		}
	}
	return total, self
}
