// Command perfbench is the repository's benchmark. It drives the
// simulator, the experiment layer, the run cache and the HTTP service
// from outside, through their public functions only, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 15 --trace 0
//
// Each workload is a fixed list of operations that one pass runs; a run
// repeats passes until -seconds have elapsed and reports medians over
// passes, scaled to a reference host speed by a probe timed next to the
// workload (probe.go). Every operation's output is checked against the
// digests in digests.json; any failure or mismatch makes correct false
// and the exit code 1. See README.md for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kernels, manycore, suite or served")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for span files")
	record := fs.String("record", "", "recompute every digest through the library and write them to this file")
	selftime := fs.String("selftime", "", "print the self-time table of a span file and exit")
	spec := fs.Bool("spec", false, "print the BENCHMARK.json this benchmark implements and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	switch {
	case *selftime != "":
		if err := printSpanFile(stdout, *selftime); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *record != "":
		if err := recordDigests(ctx, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	case *spec:
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}

	var w *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cwd, _ := os.Getwd()
	host := hostFingerprint(cwd, *seed)
	hostLine, _ := json.Marshal(map[string]Host{"host": host})
	fmt.Fprintf(stdout, "%s\n", hostLine)

	for range probeWarmup { // warm the probe's code and buffers
		probeCall()
	}
	before := probeReading(probeBurstMax)
	b, setups, err := w.New(ctx, *seed, digests)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", w.Name, err)
		printResult(stdout, result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		return 1
	}
	after := probeReading(probeBurstMax)
	m := measure(ctx, b, after, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	b.Close()
	m.setupFactor = speedFactor(before, after)
	m.probes = append(m.probes, before, after)

	res := m.result(setups, *trace == 1)
	for _, e := range m.errs() {
		fmt.Fprintln(stderr, "perfbench: FAIL", e)
	}
	nLat := len(m.latencies(false))
	fmt.Fprintf(stdout, "# %s: %d passes, %d latencies for job_p50_ms/job_p99_ms (%d beyond p99)\n",
		w.Name, len(m.passes), nLat, TailBeyond(nLat, 99))
	fmt.Fprintf(stdout, "# host speed: probe median %.3f ms over %d results, reference %.3f ms; end-to-end times are scaled by reference/probe, unscaled figures below\n",
		Median(m.probes)/1e6, len(m.probes), probeRefNs/1e6)
	rawLine, _ := json.Marshal(map[string]map[string]float64{"unscaled": m.endToEnd(setups, false)})
	fmt.Fprintf(stdout, "%s\n", rawLine)
	countsLine, _ := json.Marshal(map[string]Counts{"counts": m.passes[0].counts})
	fmt.Fprintf(stdout, "%s\n", countsLine)
	if *trace == 1 {
		spans := m.tracer.Spans()
		WriteSelfTimeTable(stderr, fmt.Sprintf("%s seed %d", w.Name, *seed), SelfTimeTable(spans), m.overhead())
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.Name, *seed))
		if err := os.MkdirAll(*out, 0o755); err == nil {
			err = writeSpanFile(path, spanFile{Workload: w.Name, Seed: *seed, Overhead: m.overhead(), Host: host, Spans: spans})
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: span file:", err)
		}
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, r result) {
	data, _ := json.Marshal(r) // a struct of numbers and strings always encodes
	fmt.Fprintf(w, "%s\n", data)
}

// measurement is a run's passes. In a traced run the passes alternate
// untraced, traced, untraced, ... so that trace.overhead compares passes
// made under the same conditions; each traced pass is a root span named
// "bench.pass".
type measurement struct {
	passes []*pass
	traced []bool
	tracer *Tracer
	// probes are the run's host-speed probe results, in ns.
	probes []float64
	// setupFactor scales set-up times measured outside the passes to the
	// reference host speed.
	setupFactor float64
}

// measure repeats passes until d has elapsed. A pass that did not probe
// the host itself is followed by a reading and gets the factor of the
// readings on either side of it; prev is the reading taken before the
// first pass.
func measure(ctx context.Context, b bench, prev float64, d time.Duration, trace bool, log io.Writer) *measurement {
	m := &measurement{}
	if trace {
		m.tracer = NewTracer()
	}
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		var tr *Tracer
		if traced {
			tr = m.tracer
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var p *pass
		wall := tr.Do(ctx, "bench.pass", func(ctx context.Context) { p = b.Pass(ctx, tr) })
		runtime.ReadMemStats(&after)
		p.wall = wall
		p.layer["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		p.layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		p.layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		fmt.Fprintf(log, "pass %d traced=%v wall %.3fs setup %.3fs sim %.3fs ops %d failed %d\n", i, traced, wall.Seconds(), p.setup.Seconds(), p.simTime.Seconds(), len(p.ops), len(p.errs))
		m.passes = append(m.passes, p)
		m.traced = append(m.traced, traced)
		m.probes = append(m.probes, p.probes...)
		if p.factor == 0 {
			r := probeAfter(wall)
			p.factor = speedFactor(prev, r)
			m.probes = append(m.probes, r)
			prev = r
		}
		// Stop when the next pass would end further past the deadline
		// than it would end before it; a traced run needs both kinds.
		if time.Now().Add(wall/2).After(deadline) && (!trace || i >= 1) {
			return m
		}
	}
}

// errs lists every failed operation and every deterministic count that
// differs from the first pass's.
func (m *measurement) errs() []string {
	var out []string
	for i, p := range m.passes {
		for _, e := range p.errs {
			out = append(out, fmt.Sprintf("pass %d: %s", i, e))
		}
		if i > 0 && !maps.Equal(p.counts, m.passes[0].counts) {
			out = append(out, fmt.Sprintf("pass %d: work counts %v differ from pass 0's %v", i, p.counts, m.passes[0].counts))
		}
	}
	return out
}

// peakRSS is the largest resident set sampled during the measured passes.
func (m *measurement) peakRSS() uint64 {
	var peak uint64
	for _, p := range m.passes {
		peak = max(peak, p.rss)
	}
	return peak
}

// latencies are the operation latencies the percentiles are taken over,
// in ms: every operation's, or, where a pass is a fixed list of
// simulations, each simulation's median over passes.
func (m *measurement) latencies(scaled bool) []float64 {
	var lat []float64
	byRow := map[string][]float64{}
	for _, p := range m.passes {
		for i, op := range p.ops {
			f := 1.0
			if scaled && p.opFactors != nil {
				f = p.opFactors[i]
			} else if scaled {
				f = p.factor
			}
			if p.opRows != nil {
				byRow[p.opRows[i]] = append(byRow[p.opRows[i]], op*f)
			} else {
				lat = append(lat, op*f)
			}
		}
	}
	for _, xs := range byRow {
		lat = append(lat, Median(xs))
	}
	return lat
}

// perPass is the median over passes (all, or only the traced ones) of f.
func (m *measurement) perPass(tracedOnly bool, f func(*pass) float64) float64 {
	var xs []float64
	for i, p := range m.passes {
		if !tracedOnly || m.traced[i] {
			xs = append(xs, f(p))
		}
	}
	return Median(xs)
}

// overhead is the median traced pass wall time over the median
// untraced, both at the reference host speed.
func (m *measurement) overhead() float64 {
	var on, off []float64
	for i, p := range m.passes {
		if m.traced[i] {
			on = append(on, p.wall.Seconds()*p.factor)
		} else {
			off = append(off, p.wall.Seconds()*p.factor)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return Median(on) / Median(off)
}

func (m *measurement) result(setups []time.Duration, trace bool) result {
	errs := m.errs()
	attempted := 0
	for _, p := range m.passes {
		attempted += p.attempted
	}
	res := result{Correct: len(errs) == 0, Attempted: max(attempted, 1), Failed: min(len(errs), max(attempted, 1)), Metrics: map[string]metric{}}
	specs, values := endToEndMetrics, map[string]float64(nil)
	if trace {
		specs, values = perLayerMetrics(), m.perLayer()
	} else {
		values = m.endToEnd(setups, true)
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	return res
}

// endToEnd computes the end-to-end metrics: every time and rate at the
// reference host speed when scaled is set, as measured otherwise. Each
// is a median over passes, or a percentile over every operation.
func (m *measurement) endToEnd(setups []time.Duration, scaled bool) map[string]float64 {
	factor := func(p *pass) float64 { return 1 }
	setupFactor := 1.0
	if scaled {
		factor = func(p *pass) float64 { return p.factor }
		setupFactor = m.setupFactor
	}
	lat := m.latencies(scaled)
	v := map[string]float64{
		"setup_s":         m.perPass(false, func(p *pass) float64 { return p.setup.Seconds() * factor(p) }),
		"simcycles_per_s": m.perPass(false, func(p *pass) float64 { return float64(p.cycles) / (p.simTime.Seconds() * factor(p)) }),
		"sim_insts_per_s": m.perPass(false, func(p *pass) float64 { return float64(p.insts) / (p.simTime.Seconds() * factor(p)) }),
		"suite_s":         m.perPass(false, func(p *pass) float64 { return p.wall.Seconds() * factor(p) }),
		"jobs_per_s":      m.perPass(false, func(p *pass) float64 { return float64(len(p.ops)) / (p.wall.Seconds() * factor(p)) }),
		"job_p50_ms":      Median(lat),
		"job_p99_ms":      Percentile(lat, 99),
		"peak_rss_mb":     float64(m.peakRSS()) / (1 << 20),
	}
	// Where a pass is a fixed list of simulations or experiments (rows),
	// each row counts with its median over passes, each time scaled by
	// the probes on either side of that row: a pass is then as long as
	// the sum of its rows' medians.
	if rows := m.passes[0].rows; len(rows) > 0 {
		var setup, run, total float64
		for row := range rows {
			med := func(f func(simTimes) time.Duration) float64 {
				return m.perPass(false, func(p *pass) float64 {
					t := p.rows[row]
					if scaled {
						return f(t).Seconds() * t.factor
					}
					return f(t).Seconds()
				})
			}
			setup += med(func(t simTimes) time.Duration { return t.setup })
			run += med(func(t simTimes) time.Duration { return t.run })
			total += med(func(t simTimes) time.Duration { return t.total })
		}
		first := m.passes[0]
		v["setup_s"] = setup
		v["simcycles_per_s"] = float64(first.cycles) / run
		v["sim_insts_per_s"] = float64(first.insts) / run
		v["suite_s"] = total
		v["jobs_per_s"] = float64(len(first.ops)) / total
	}
	if len(setups) > 0 {
		var xs []float64
		for _, d := range setups {
			xs = append(xs, d.Seconds()*setupFactor)
		}
		v["setup_s"] = Median(xs)
	}
	return v
}

// spanMetrics maps span names to the per-layer metric that sums their
// self time over a pass.
var spanMetrics = map[string]string{
	"kernels.build":     "kernels.build_ms",
	"kernels.verify":    "kernels.verify_ms",
	"machine.new":       "machine.new_ms",
	"machine.run":       "machine.run_ms",
	"memsys.image_init": "memsys.image_init_ms",
	"stats.snapshot":    "stats.snapshot_ms",
	"results.lookup":    "results.lookup_ms",
	"results.render":    "results.render_ms",
}

// perCallSpans are the client-side serve spans, reported as the median
// self time of one call rather than a per-pass sum.
var perCallSpans = map[string]string{
	"serve.submit": "serve.submit_ms",
	"serve.wait":   "serve.wait_ms",
	"serve.result": "serve.result_ms",
}

func (m *measurement) perLayer() map[string]float64 {
	v := map[string]float64{}
	for name, n := range m.passes[0].counts {
		v[name] = float64(n)
	}
	if e := v["clock.epochs"]; e > 0 {
		v["clock.epoch_commit_ratio"] = (e - v["clock.epoch_fails"]) / e
	}
	if t := v["results.cache_hits"] + v["results.cache_misses"]; t > 0 {
		v["results.hit_ratio"] = v["results.cache_hits"] / t
	}

	// Layer figures measured inside the passes: the median over traced
	// passes; serve.heap_kb_per_job is cumulative since set-up, so the
	// last pass holds it over the whole run.
	var keys []string
	for _, p := range m.passes {
		for k := range p.layer {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		v[k] = m.perPass(true, func(p *pass) float64 { return p.layer[k] })
	}
	if last := m.passes[len(m.passes)-1]; last.layer["serve.heap_kb_per_job"] != 0 {
		v["serve.heap_kb_per_job"] = last.layer["serve.heap_kb_per_job"]
	}

	// Span self times, per traced pass.
	spans := m.tracer.Spans()
	self := SelfTimes(spans)
	passOf := map[int]map[string]float64{} // span ID -> its pass's sums
	var sums []map[string]float64
	calls := map[string][]float64{}
	for _, s := range spans { // parents precede children
		if s.Parent == 0 {
			sums = append(sums, map[string]float64{})
			passOf[s.ID] = sums[len(sums)-1]
			continue
		}
		sum := passOf[s.Parent]
		passOf[s.ID] = sum
		selfMs := float64(self[s.ID]) / 1e6
		if name, ok := spanMetrics[s.Name]; ok {
			sum[name] += selfMs
		} else if strings.HasPrefix(s.Name, "exp.") {
			sum["exp.self_ms"] += selfMs
		} else if name, ok := perCallSpans[s.Name]; ok {
			calls[name] = append(calls[name], selfMs)
		}
	}
	names := []string{"exp.self_ms"}
	for _, name := range spanMetrics {
		names = append(names, name)
	}
	for _, name := range names {
		var xs []float64
		for _, s := range sums {
			xs = append(xs, s[name])
		}
		v[name] = Median(xs)
	}
	for name, xs := range calls {
		v[name] = Median(xs)
	}
	if t := v["clock.slow_ticks"]; t > 0 {
		v["machine.ns_per_slow_tick"] = v["machine.run_ms"] * 1e6 / t
	}
	v["trace.overhead"] = m.overhead()
	v["host.probe_ms"] = Median(m.probes) / 1e6
	return v
}
