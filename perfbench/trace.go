package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, the span that caused it
// (0 for a root) and its interval in nanoseconds since the trace began.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer records spans in memory. A nil *Tracer records nothing, so the
// untraced passes pay only for the time.Now calls they make anyway.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

type spanKey struct{}

// Do runs fn inside a span named name, a child of the span carried by
// ctx, and returns fn's wall time whether or not t records spans.
func (t *Tracer) Do(ctx context.Context, name string, fn func(context.Context)) time.Duration {
	start := time.Now()
	if t == nil {
		fn(ctx)
		return time.Since(start)
	}
	parent, _ := ctx.Value(spanKey{}).(int)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	fn(context.WithValue(ctx, spanKey{}, id))
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return end.Sub(start)
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (a
// parallel fan-out) are counted once.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range sorted {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// layerOf names the table row a span belongs to: its own name, except
// that the per-experiment spans "exp.<id>" share the row "exp".
func layerOf(name string) string {
	if strings.HasPrefix(name, "exp.") {
		return "exp"
	}
	return name
}

// SelfTimeRow is one line of the per-layer self-time table.
type SelfTimeRow struct {
	Layer  string
	Spans  int
	SelfMs float64
	Share  float64 // of all self time in the trace
}

// SelfTimeTable sums self time per layer over every span, largest first.
func SelfTimeTable(spans []Span) []SelfTimeRow {
	self := SelfTimes(spans)
	byLayer := map[string]*SelfTimeRow{}
	var total int64
	for _, s := range spans {
		l := layerOf(s.Name)
		r := byLayer[l]
		if r == nil {
			r = &SelfTimeRow{Layer: l}
			byLayer[l] = r
		}
		r.Spans++
		r.SelfMs += float64(self[s.ID]) / 1e6
		total += self[s.ID]
	}
	rows := make([]SelfTimeRow, 0, len(byLayer))
	for _, r := range byLayer {
		if total > 0 {
			r.Share = r.SelfMs * 1e6 / float64(total)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// WriteSelfTimeTable prints the table, followed by the tracing overhead
// when it is known (overhead <= 0 omits the line).
func WriteSelfTimeTable(w io.Writer, title string, rows []SelfTimeRow, overhead float64) {
	fmt.Fprintf(w, "self time by layer: %s\n", title)
	fmt.Fprintf(w, "  %-18s %8s %12s %7s\n", "layer", "spans", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %8d %12.3f %6.1f%%\n", r.Layer, r.Spans, r.SelfMs, 100*r.Share)
	}
	if overhead > 0 {
		fmt.Fprintf(w, "  trace.overhead %.4f (traced / untraced pass wall time)\n", overhead)
	}
}

// spanFile is the on-disk form of a traced run.
type spanFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Overhead float64 `json:"traceOverhead"`
	Host     Host    `json:"host"`
	Spans    []Span  `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSpanFile reads a span file and prints its self-time table.
func printSpanFile(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	WriteSelfTimeTable(w, fmt.Sprintf("%s seed %d", f.Workload, f.Seed), SelfTimeTable(f.Spans), f.Overhead)
	return nil
}
