package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Op; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns it; close it with done. A nil tracer
// returns a zero span.
func (t *tracer) open(name string, parent span, op int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{ID: id, Parent: parent.ID, Op: op, Name: name, Start: int64(time.Since(t.t0))}
}

// done ends s now and records it.
func (t *tracer) done(s span) span {
	if t == nil {
		return s
	}
	return t.doneAt(s, time.Now())
}

// doneAt ends s at the given time and records it.
func (t *tracer) doneAt(s span, end time.Time) span {
	if t == nil {
		return s
	}
	s.End = int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// record adds a span whose start and end the caller measured itself.
func (t *tracer) record(name string, parent span, op int64, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	s := t.open(name, parent, op)
	s.Start = int64(start.Sub(t.t0))
	return t.doneAt(s, end)
}

// durations returns the durations of every recorded span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// total returns the summed duration of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += time.Duration(d * float64(time.Millisecond))
	}
	return sum
}

// layerTime is one span name's aggregate: how often it ran, its total
// duration and its self time (duration not covered by child spans).
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	Root  bool
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it; for a root
// span that remainder is the time no layer call accounts for.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name, Root: s.Parent == 0}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Root != out[j].Root {
			return out[i].Root
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// writeSelfTimes prints the self-time table: every layer's calls, total
// and self time, with each root span's self time labelled as the
// unattributed remainder.
func writeSelfTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, lt := range lts {
		label := lt.Name
		if lt.Root {
			label += " (root; self = unattributed)"
		}
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", label, lt.Count, ms(lt.Total), ms(lt.Self))
	}
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
