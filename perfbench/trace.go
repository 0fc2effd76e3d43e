package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one flow, design task or request share
// Trace; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	tr     *tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  time.Time
}

// begin opens a span. On a nil tracer it returns an inert span.
func (t *tracer) begin(name string, parent, trace int64) active {
	if t == nil {
		return active{}
	}
	return active{tr: t, id: t.next.Add(1), parent: parent, trace: trace, name: name, start: time.Now()}
}

// end closes the span.
func (a active) end() {
	if a.tr == nil {
		return
	}
	now := time.Now()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, span{
		ID: a.id, Parent: a.parent, Trace: a.trace, Name: a.name,
		Start: int64(a.start.Sub(a.tr.t0)), End: int64(now.Sub(a.tr.t0)),
	})
	a.tr.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent. Children of one parent may overlap when the
// layer below runs them on several workers.
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
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// write stores the spans as JSON and prints each layer's self time.
func (t *tracer) write(dir, workload string, seed int64) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# self %-28s %12.3f ms\n", k, millis(self[k]))
	}
	t.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{Workload: workload, Seed: seed, SelfMs: map[string]float64{}, Spans: t.spans}
	for k, v := range self {
		doc.SelfMs[k] = millis(v)
	}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	fmt.Printf("# spans: %s\n", path)
	return os.WriteFile(path, b, 0o644)
}
