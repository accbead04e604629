package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/stats"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{5, 1, 3}, 50); got != 3 {
		t.Errorf("p50 of {5,1,3} = %v, want 3", got)
	}
	if got := Percentile([]float64{4, 2, 9, 7, 1, 8, 3, 6, 5, 10}, 99); got != 10 {
		t.Errorf("p99 of 10 samples = %v, want the maximum 10", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	for _, c := range []struct{ n, want int }{{1000, 10}, {100, 1}, {10, 0}, {2000, 20}} {
		if got := TailBeyond(c.n, 99); got != c.want {
			t.Errorf("TailBeyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50] once: 40 ns.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent only counts inside it: 10 ns.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("SelfTimes = %v, want %v", self, want)
	}
	rows := SelfTimeTable(spans)
	var total float64
	for _, r := range rows {
		total += r.Share
	}
	if math.Abs(total-1) > 1e-9 || rows[0].Layer != "root" {
		t.Fatalf("table %+v: shares sum to %v, first row %q", rows, total, rows[0].Layer)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := NewTracer()
	ctx := context.Background()
	tr.Do(ctx, "outer", func(ctx context.Context) {
		tr.Do(ctx, "exp.fig12", func(context.Context) {})
	})
	var nilTr *Tracer
	nilTr.Do(ctx, "ignored", func(context.Context) {})
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[1].End < spans[1].Start {
		t.Fatalf("spans %+v", spans)
	}
	if layerOf(spans[1].Name) != "exp" {
		t.Errorf("exp spans should share the exp row")
	}
}

func TestJobMixSeedDeterminism(t *testing.T) {
	ids := suiteIDs()
	a, b := JobMix(ids, 7, servedCopies), JobMix(ids, 7, servedCopies)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew two different job mixes")
	}
	if slices.Equal(a, JobMix(ids, 8, servedCopies)) {
		t.Fatal("seeds 7 and 8 drew the same job mix")
	}
	// Every seed submits each experiment equally often.
	count := map[string]int{}
	for _, id := range a {
		count[id]++
	}
	for _, id := range ids {
		if count[id] != servedCopies {
			t.Fatalf("mix holds %s %d times, want %d", id, count[id], servedCopies)
		}
	}
	if len(a) != len(ids)*servedCopies {
		t.Fatalf("mix of %d jobs holds IDs outside the suite", len(a))
	}
	order := func(seed int64) []string {
		var rows []string
		for _, s := range shuffled(kernelSpecs(), seed) {
			rows = append(rows, s.row)
		}
		return rows
	}
	if !slices.Equal(order(3), order(3)) {
		t.Fatal("the same seed shuffled the kernels differently")
	}
	if slices.Equal(order(3), order(4)) {
		t.Fatal("seeds 3 and 4 ran the kernels in the same order")
	}
}

func TestDigestsCoverEveryOperation(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range kernelSpecs() {
		if d.Kernels[s.key] == "" {
			t.Errorf("no digest for %s", s.key)
		}
	}
	for _, s := range manycoreSpecs() {
		if d.Manycore[s.key] == "" {
			t.Errorf("no digest for %s", s.key)
		}
	}
	for _, id := range suiteIDs() {
		if d.Envelopes[id] == "" {
			t.Errorf("no envelope digest for %s", id)
		}
	}
}

func TestDigestIgnoresOnlyClockStats(t *testing.T) {
	snap := stats.Snapshot{Samples: []stats.Sample{
		{Name: "machine.clock.slow_ticks", Kind: stats.KindDerived, Value: 10},
		{Name: "machine.committed", Kind: stats.KindDerived, Value: 5},
	}}
	base := Digest(100, snap)
	snap.Samples[0].Value = 11
	if Digest(100, snap) != base {
		t.Error("a machine.clock.* change moved the digest")
	}
	snap.Samples[1].Value = 6
	if Digest(100, snap) == base {
		t.Error("a simulated-work change left the digest alone")
	}
	if Digest(101, stats.Snapshot{}) == Digest(100, stats.Snapshot{}) {
		t.Error("the cycle count is not in the digest")
	}
}

// simulate must return exactly what kernels.Run returns, or the suite
// workload would feed the experiments different results.
func TestSimulateMatchesKernelsRun(t *testing.T) {
	ctx := context.Background()
	for _, mode := range fenceModes {
		opts := kernels.Options{Mode: mode, Threads: 4, Ops: 20}
		k, err := kernels.Build("wsq", opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kernels.Run(ctx, k, machine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := simulate(ctx, NewTracer(), "wsq", opts, machine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got.res)
		if string(a) != string(b) {
			t.Fatalf("%s: simulate differs from kernels.Run", mode)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, ours any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, _ := json.Marshal(benchmarkSpec())
	if err := json.Unmarshal(gen, &ours); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, ours) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with perfbench -spec")
	}
	seen := map[string]bool{}
	for _, m := range append(endToEndMetrics, perLayerMetrics()...) {
		if seen[m.Name] || len(m.Name) > 64 {
			t.Errorf("metric name %q repeated or too long", m.Name)
		}
		seen[m.Name] = true
	}
	if n := len(perLayerMetrics()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
}

// Each row (one simulation of a fixed list) counts with its median over
// passes, each time scaled by its own factor, and the latencies are the
// rows' medians; unscaled figures ignore the factors.
func TestEndToEndScalesEachRow(t *testing.T) {
	mk := func(fa, fb float64, ta, tb time.Duration) *pass {
		p := newPass()
		p.cycles, p.insts = 1000, 2000
		p.rows["a"] = simTimes{setup: ta / 10, run: ta / 2, total: ta, factor: fa}
		p.rows["b"] = simTimes{setup: tb / 10, run: tb / 2, total: tb, factor: fb}
		p.ops = []float64{ms(ta), ms(tb)}
		p.opFactors = []float64{fa, fb}
		p.opRows = []string{"a", "b"}
		p.wall = ta + tb
		p.factor = 1
		return p
	}
	// On a host twice as slow in pass 2, the probe doubles too: scaled,
	// both passes read the same.
	m := &measurement{passes: []*pass{
		mk(1, 1, time.Second, 3*time.Second),
		mk(0.5, 0.5, 2*time.Second, 6*time.Second),
		mk(1, 1, time.Second, 3*time.Second),
	}}
	v := m.endToEnd(nil, true)
	if got := v["suite_s"]; math.Abs(got-4) > 1e-9 {
		t.Errorf("suite_s = %v, want 4", got)
	}
	if got := v["simcycles_per_s"]; math.Abs(got-500) > 1e-9 {
		t.Errorf("simcycles_per_s = %v, want 1000 cycles / 2 s", got)
	}
	if got := v["job_p99_ms"]; math.Abs(got-3000) > 1e-6 {
		t.Errorf("job_p99_ms = %v, want row b's 3000", got)
	}
	if got := v["jobs_per_s"]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("jobs_per_s = %v, want 2 simulations / 4 s", got)
	}
	// Unscaled, the one slow pass does not move the rows' medians.
	if got := m.endToEnd(nil, false)["suite_s"]; math.Abs(got-4) > 1e-9 {
		t.Errorf("unscaled suite_s = %v, want 4", got)
	}
	if f := speedFactor(probeRefNs, probeRefNs); f != 1 {
		t.Errorf("speedFactor at the reference speed = %v, want 1", f)
	}
	if f := speedFactor(2*probeRefNs, 2*probeRefNs); f != 0.5 {
		t.Errorf("speedFactor on a host twice as slow = %v, want 0.5", f)
	}
}
