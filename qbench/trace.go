package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; a root span has Parent 0. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// root records the span of one client operation and returns its id.
func (t *tracer) root(name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.add(0, 0, name, start, end)
}

// child records a span caused by parent, in parent's operation.
func (t *tracer) child(parent int, name string, start, end time.Time) int {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	op := t.spans[parent-1].Op
	t.mu.Unlock()
	return t.add(parent, op, name, start, end)
}

// finish sets the end of a span recorded before its end was known.
func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Self  float64 `json:"self_ms"`
}

// selfTimes sums each layer's self time — a span's duration minus the part
// of it its children cover — where a layer is the span name up to the
// first dot.
func selfTimes(spans []span) []layerSelf {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := map[string]*layerSelf{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		ls := agg[layer]
		if ls == nil {
			ls = &layerSelf{Layer: layer}
			agg[layer] = ls
		}
		ls.Spans++
		ls.Self += float64(self) / 1e6
	}
	out := make([]layerSelf, 0, len(agg))
	for _, ls := range agg {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
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
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// traceFile is what a traced run writes: the environment, the spans, the
// self-time table and the overhead against the untraced run of the seed.
type traceFile struct {
	Env      env                `json:"env"`
	SelfTime []layerSelf        `json:"self_time"`
	Overhead map[string]float64 `json:"overhead,omitempty"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes the trace file and prints the self-time table and the
// overhead line to w.
func (r *run) writeTrace(w io.Writer) error {
	tf := traceFile{Env: r.env, SelfTime: selfTimes(r.tr.spans), Spans: r.tr.spans}
	fmt.Fprintf(w, "qbench: self time by layer (%s, seed %d, %d spans)\n", r.env.Workload, r.env.Seed, len(tf.Spans))
	for _, ls := range tf.SelfTime {
		fmt.Fprintf(w, "qbench:   %-8s %8d spans %12.3f ms\n", ls.Layer, ls.Spans, ls.Self)
	}
	if base, ok := r.loadE2E(); ok {
		tf.Overhead = map[string]float64{}
		var parts []string
		for _, k := range sortedKeys(e2eUnits) {
			if b := base[k]; b > 0 {
				tf.Overhead[k] = (r.e2e[k] - b) / b
				parts = append(parts, fmt.Sprintf("%s %+.1f%%", k, 100*tf.Overhead[k]))
			}
		}
		fmt.Fprintf(w, "qbench: tracing overhead vs untraced run of this seed: %s\n", strings.Join(parts, ", "))
	} else {
		fmt.Fprintf(w, "qbench: tracing overhead: no untraced run of this seed and binary recorded yet\n")
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	path := r.recordPath("trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "qbench: spans written to %s\n", path)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// e2eRecord is an untraced run's end-to-end figures, kept so the traced run
// of the same seed can report its overhead.
type e2eRecord struct {
	Binary string             `json:"binary"`
	E2E    map[string]float64 `json:"e2e"`
}

func (r *run) saveE2E() error {
	raw, err := json.Marshal(e2eRecord{Binary: binaryID(), E2E: r.e2e})
	if err != nil {
		return err
	}
	return os.WriteFile(r.recordPath("e2e"), raw, 0o644)
}

func (r *run) loadE2E() (map[string]float64, bool) {
	raw, err := os.ReadFile(r.recordPath("e2e"))
	if err != nil {
		return nil, false
	}
	var rec e2eRecord
	if json.Unmarshal(raw, &rec) != nil || rec.Binary != binaryID() {
		return nil, false
	}
	return rec.E2E, true
}
