package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of hsmodel. Spans
// of one request or episode share Req; Parent is the enclosing span (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t *tracer
	s span
}

// begin starts a span named name under parent (0 for a root span; a root
// span starts a new request id).
func (t *tracer) begin(name string, parent open) open {
	if t == nil {
		return open{}
	}
	id := t.ids.Add(1)
	req := parent.s.Req
	if parent.t == nil {
		req = id
	}
	return open{t: t, s: span{ID: id, Parent: parent.s.ID, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// end closes the span and returns its duration (0 when untraced).
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return time.Duration(o.s.dur())
}

// record adds an already measured interval as a span.
func (t *tracer) record(name string, parent open, start, end time.Time) {
	if t == nil {
		return
	}
	o := t.begin(name, parent)
	o.s.Start, o.s.End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, o.s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children counted
// once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if open && a <= curEnd {
				curEnd = max(curEnd, b)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = a, b, true
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count     int      `json:"count"`
	TotalMs   float64  `json:"total_ms"`
	SelfMs    float64  `json:"self_ms"`
	MedianUs  float64  `json:"median_us"`
	MedSelfUs float64  `json:"median_self_us"`
	Parents   []string `json:"parents"`
}

// layerStats groups spans by name: counts, total and self time, medians,
// and the names of the spans they ran under.
func layerStats(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	byID := make(map[int64]string, len(spans))
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	parents := map[string]map[string]bool{}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
			parents[s.Name] = map[string]bool{}
		}
		st.Count++
		st.TotalMs += float64(s.dur()) / 1e6
		st.SelfMs += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
		p := "(root)"
		if s.Parent != 0 {
			p = byID[s.Parent]
		}
		parents[s.Name][p] = true
	}
	for name, st := range out {
		st.MedianUs = median(durs[name])
		st.MedSelfUs = median(selfs[name])
		for p := range parents[name] {
			st.Parents = append(st.Parents, p)
		}
		sort.Strings(st.Parents)
	}
	return out
}

// durations returns the durations (in microseconds) of spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writeDump writes the traced run's spans and derived figures as JSON.
func writeDump(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
