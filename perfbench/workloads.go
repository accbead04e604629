package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"sfence"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/results"
)

// Counts are deterministic work counts: they depend on the commit and the
// seed, never on the host, so every repetition must reproduce them
// exactly.
type Counts map[string]int64

func (c Counts) addSim(r simResult) {
	snap := r.res.Snapshot
	c["sim.cycles"] += r.res.Cycles
	c["sim.committed"] += snap.Value("machine.committed")
	c["cpu.fence_stall_cycles"] += snap.Value("machine.fence_idle_cycles")
	c["cpu.mispredicts"] += snap.Value("machine.mispredicts")
	c["memsys.l1_misses"] += snap.Value("machine.mem.l1_misses")
	c["memsys.l2_misses"] += snap.Value("machine.mem.l2_misses")
	c["clock.slow_ticks"] += r.clock.SlowTicks
	c["clock.skipped_cycles"] += r.clock.SkippedCycles
	c["clock.jumps"] += r.clock.Jumps
	c["clock.spin_jumps"] += r.clock.SpinJumps
	c["clock.spin_skipped_cycles"] += r.clock.SpinSkippedCycles
	c["clock.epochs"] += r.clock.Epochs
	c["clock.epoch_fails"] += r.clock.EpochFails
	c["clock.epoch_cycles"] += r.clock.EpochCycles
}

// pass is what one repetition of a workload's operation list measured.
type pass struct {
	wall  time.Duration
	setup time.Duration // set-up share of the pass (zero for served)
	// rows splits the pass by simulation or experiment where a pass runs
	// a fixed list of them, so that each one can count with its median.
	rows    map[string]simTimes
	simTime time.Duration // host time the simulated-work rates divide by
	// factor scales the pass's times to the reference host speed: set by
	// the pass from its own probes, or else from the readings on either
	// side of it.
	factor float64
	probes []float64 // probe results the pass took, ns
	cycles int64     // simulated cycles behind the pass's results
	insts  int64     // committed instructions behind them
	ops    []float64 // per-operation latency, ms
	// opFactors scale ops one by one where the pass probed the host
	// between its operations; otherwise factor scales them all.
	opFactors []float64
	// opRows names each op's simulation where a pass is a fixed list of
	// simulations: each one's latency is then its median over passes.
	opRows []string
	rss    uint64 // largest resident set sampled during the pass, bytes
	counts Counts
	layer  map[string]float64 // per-layer figures that are not span self times
	// attempted counts checked operations (simulations, experiments,
	// jobs); errs lists the ones that failed or mismatched.
	attempted int
	errs      []string
}

func newPass() *pass {
	return &pass{counts: Counts{}, layer: map[string]float64{}, rows: map[string]simTimes{}}
}

// sampleRSS records the process's resident set size if it is the largest
// seen in the pass. Passes sample at operation boundaries, where the
// machines an operation built are still in the heap.
func (p *pass) sampleRSS() { p.rss = max(p.rss, residentBytes()) }

func (p *pass) fail(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// simTimes is one row's host times (a simulation's, or the sums over an
// experiment's simulations) and the factor that scales them to the
// reference host speed.
type simTimes struct {
	setup, run, total time.Duration
	factor            float64
}

// addSim folds one simulation into the pass and checks it against its
// recorded digest. A named row also records the simulation's times with
// factor.
func (p *pass) addSim(r simResult, want string, row string, factor float64) {
	p.attempted++
	p.setup += r.setup
	p.simTime += r.run
	p.cycles += r.res.Cycles
	p.insts += r.res.Snapshot.Value("machine.committed")
	p.counts.addSim(r)
	p.layer["machine.new_alloc_mb"] += float64(r.newAlloc) / (1 << 20)
	if row != "" {
		p.layer["machine.run_ms."+row] += ms(r.run)
		p.rows[row] = simTimes{setup: r.setup, run: r.run, total: r.total, factor: factor}
	}
	if got := Digest(r.res.Cycles, r.res.Snapshot); want == "" || got != want {
		p.fail("%s: digest %s, recorded %q", row, got, want)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// bench is a workload ready to measure: Pass runs its operation list once.
type bench interface {
	Pass(ctx context.Context, tr *Tracer) *pass
	Close()
}

// workload builds a bench for a seed. setup holds set-up times measured
// outside the passes; when it is empty setup_s comes from the passes.
type workload struct {
	Name string
	New  func(ctx context.Context, seed int64, d *Digests) (b bench, setup []time.Duration, err error)
}

var workloads = []workload{
	{"kernels", newKernelsBench},
	{"manycore", newManycoreBench},
	{"suite", newSuiteBench},
	{"served", newServedBench},
}

// simSpec is one simulation of a kernels or manycore pass.
type simSpec struct {
	bench string
	opts  kernels.Options
	cfg   machine.Config
	key   string // digest key
	row   string // machine.run_ms.<row>
}

// kernelOps sizes each Table IV kernel so that every one spends a similar
// host time in Machine.Run and no single kernel dominates the pass.
var kernelOps = map[string]int{
	"dekker": 1400, "wsq": 800, "msn": 600, "harris": 320,
	"barnes": 88, "radiosity": 80, "pst": 860, "ptc": 30,
}

// kernelThreads is the Table III thread count of each kernel, as the
// experiment suite uses it.
var kernelThreads = map[string]int{"dekker": 2, "wsq": 4, "msn": 4, "harris": 4}

var fenceModes = []kernels.FenceMode{kernels.Traditional, kernels.Scoped}

func kernelSpecs() []simSpec {
	var specs []simSpec
	for _, info := range kernels.All() {
		threads := kernelThreads[info.Name]
		if threads == 0 {
			threads = 8
		}
		for _, mode := range fenceModes {
			row := fmt.Sprintf("%s-%s", info.Name, mode)
			specs = append(specs, simSpec{
				bench: info.Name,
				opts:  kernels.Options{Mode: mode, Threads: threads, Ops: kernelOps[info.Name]},
				cfg:   machine.DefaultConfig(),
				key:   row,
				row:   row,
			})
		}
	}
	return specs
}

// manycoreSpecs is scale-imb at 64 cores under both fence modes, on the
// sequential clock (workers 1) and the epoch-parallel one (workers 2).
// Both runners must compute the same digest.
func manycoreSpecs() []simSpec {
	var specs []simSpec
	for _, workers := range []int{1, 2} {
		for _, mode := range fenceModes {
			cfg := machine.DefaultConfig()
			cfg.Cores = 64
			cfg.Parallel.Workers = workers
			specs = append(specs, simSpec{
				bench: "scale-imb",
				opts:  kernels.Options{Mode: mode, Threads: 64, Ops: 2, Workload: 1},
				cfg:   cfg,
				key:   fmt.Sprintf("scale-imb-%s-c64", mode),
				row:   fmt.Sprintf("scale-imb-%s-w%d", mode, workers),
			})
		}
	}
	return specs
}

// shuffled returns specs in an order drawn from seed: the order in which
// the simulations meet the heap and the host caches is the input a seed
// varies, while the work itself stays the same so that runs with
// different seeds measure the same thing.
func shuffled(specs []simSpec, seed int64) []simSpec {
	out := append([]simSpec(nil), specs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// simBench runs a fixed list of simulations one at a time. Each one
// starts from a collected heap whose free pages went back to the
// operating system, as in a fresh sfence-sim process: peak_rss_mb then
// measures one simulation's footprint, not how many finished machines the
// collector and the scavenger happened to keep. A probe reading follows
// every simulation, so each simulation is scaled by the readings on
// either side of it.
type simBench struct {
	specs     []simSpec
	digests   map[string]string
	lastProbe float64
}

func newKernelsBench(_ context.Context, seed int64, d *Digests) (bench, []time.Duration, error) {
	return &simBench{specs: shuffled(kernelSpecs(), seed), digests: d.Kernels}, nil, nil
}

func newManycoreBench(_ context.Context, seed int64, d *Digests) (bench, []time.Duration, error) {
	return &simBench{specs: shuffled(manycoreSpecs(), seed), digests: d.Manycore}, nil, nil
}

func (b *simBench) Pass(ctx context.Context, tr *Tracer) *pass {
	p := newPass()
	if b.lastProbe == 0 {
		b.lastProbe = probeCall()
	}
	var raw, scaled float64
	for _, s := range b.specs {
		r, err := simulate(ctx, tr, s.bench, s.opts, s.cfg)
		if err != nil {
			p.attempted++
			p.fail("%s: %v", s.row, err)
			continue
		}
		p.sampleRSS()
		debug.FreeOSMemory()
		probe := probeAfter(r.total)
		f := speedFactor(b.lastProbe, probe)
		b.lastProbe = probe
		p.probes = append(p.probes, probe)
		p.ops = append(p.ops, ms(r.total))
		p.opFactors = append(p.opFactors, f)
		p.opRows = append(p.opRows, s.row)
		p.addSim(r, b.digests[s.key], s.row, f)
		raw += r.total.Seconds()
		scaled += r.total.Seconds() * f
	}
	if raw > 0 {
		p.factor = scaled / raw
	}
	return p
}

func (b *simBench) Close() {}

// suiteIDs are the quick-scale suite experiments the suite and served
// workloads use: every suite member except fig-cores, whose 256-core
// machines belong to the manycore workload.
func suiteIDs() []string {
	var ids []string
	for _, spec := range sfence.Experiments() {
		if spec.InSuite() && spec.ID != "fig-cores" {
			ids = append(ids, spec.ID)
		}
	}
	return ids
}

// suiteBench runs one cold pass of the quick suite per Pass: a fresh
// memory run cache, a Lab of parallelism 2, and every suite experiment in
// registry order. Its operations, for jobs_per_s and the latency
// percentiles, are the simulation requests the experiments make, hits
// and misses alike. The suite's input is the registry itself, so the seed
// changes nothing here; it is still recorded with the result. A probe
// reading follows every experiment, so each experiment, and every
// simulation and request in it, is scaled by the readings on either side
// of it.
type suiteBench struct {
	ids       []string
	digests   *Digests
	lastProbe float64
}

func newSuiteBench(_ context.Context, _ int64, d *Digests) (bench, []time.Duration, error) {
	return &suiteBench{ids: suiteIDs(), digests: d}, nil, nil
}

func (b *suiteBench) Pass(ctx context.Context, tr *Tracer) *pass {
	p := newPass()
	cache := results.NewMemCache()
	var mu sync.Mutex // guards p while the Lab's two workers simulate
	var sims int64
	sim := func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		r, err := simulate(ctx, tr, bench, opts, cfg)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			p.attempted++
			p.fail("%s: %v", bench, err)
			return kernels.Result{}, err
		}
		key := results.Key(bench, opts, cfg)
		p.addSim(r, b.digests.Suite[key], "", 0)
		p.sampleRSS()
		return r.res, nil
	}
	cached := cache.Runner(sim)
	runner := func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (res kernels.Result, err error) {
		d := tr.Do(ctx, "results.lookup", func(ctx context.Context) { res, err = cached(ctx, bench, opts, cfg) })
		mu.Lock()
		defer mu.Unlock()
		sims++
		p.ops = append(p.ops, ms(d))
		return res, err
	}
	lab := sfence.NewLab(sfence.WithScale(sfence.Quick), sfence.WithParallelism(2), sfence.WithRunner(runner))
	if b.lastProbe == 0 {
		b.lastProbe = probeCall()
	}
	var raw, scaled float64
	for _, id := range b.ids {
		p.attempted++
		var (
			res *sfence.ExperimentResult
			env []byte
			err error
		)
		mu.Lock()
		setup0, run0, ops0 := p.setup, p.simTime, len(p.ops)
		mu.Unlock()
		d := tr.Do(ctx, "exp."+id, func(ctx context.Context) { res, err = lab.Run(ctx, id) })
		runErr := err
		var rd time.Duration
		if runErr == nil {
			rd = tr.Do(ctx, "results.render", func(context.Context) {
				if env, err = res.JSON(); err == nil {
					_ = res.Render()
				}
			})
		}
		p.sampleRSS()
		probe := probeAfter(d + rd)
		f := speedFactor(b.lastProbe, probe)
		b.lastProbe = probe
		mu.Lock()
		p.probes = append(p.probes, probe)
		p.rows[id] = simTimes{setup: p.setup - setup0, run: p.simTime - run0, total: d + rd, factor: f}
		for range p.ops[ops0:] {
			p.opFactors = append(p.opFactors, f)
		}
		mu.Unlock()
		raw += (d + rd).Seconds()
		scaled += (d + rd).Seconds() * f
		if runErr != nil {
			p.fail("%s: %v", id, runErr)
			continue
		}
		p.layer[expMetric(id)] = ms(d + rd)
		if err != nil {
			p.fail("%s: encode: %v", id, err)
		} else if got := bytesDigest(env); got != b.digests.Envelopes[id] {
			p.fail("%s: envelope digest %s, direct lab.Run %q", id, got, b.digests.Envelopes[id])
		}
	}
	if raw > 0 {
		p.factor = scaled / raw
	}
	st := cache.Stats()
	p.counts["exp.sims"] = sims
	p.counts["results.cache_hits"] = int64(st.Hits)
	p.counts["results.cache_misses"] = int64(st.Misses)
	return p
}

func (b *suiteBench) Close() {}

// expMetric names an experiment's per-layer row: "ablation/fss-depth"
// becomes "exp.ablation.fss-depth.ms".
func expMetric(id string) string { return "exp." + strings.ReplaceAll(id, "/", ".") + ".ms" }
