// Differential test of the epoch driver's thread count: every Table IV
// kernel and every litmus configuration is simulated with Workers=1
// (the reference) and with Workers=2 and Workers=4, and the runs must be
// bit-identical — same final cycle, same registers, same memory image,
// same full stats registry, machine.clock.* included. Workers only sets
// how many goroutines step the cores inside an epoch, and every epoch
// decision is a function of simulated state, so not even the clock
// accounting may depend on it. (The naive-vs-Run half of the contract is
// clock_equivalence_test.go.) Run it under -race to also certify the
// epoch workers share nothing they should not.
package sfence_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/kernels"
	"sfence/internal/litmus"
	"sfence/internal/machine"
	"sfence/internal/memsys"
	"sfence/internal/trace"
)

// parallelWorkerCounts are the worker counts differenced against the
// Workers=1 reference.
var parallelWorkerCounts = []int{2, 4}

// runWorkers builds and runs one kernel machine with the given worker
// count, returning the machine and its final cycle.
func runWorkers(t *testing.T, bench string, opts kernels.Options, cfg machine.Config, workers int) (*machine.Machine, int64) {
	t.Helper()
	cfg.Parallel.Workers = workers
	_, m := buildKernelMachine(t, bench, opts, cfg)
	cyc, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return m, cyc
}

// assertWorkersEqual checks a run at some worker count against the
// Workers=1 reference: every simulated observable equal, and the whole
// stats snapshot identical — machine.clock.*, which mirrors every
// Clock() field, included.
func assertWorkersEqual(t *testing.T, name string, ref, par *machine.Machine, refCyc, parCyc int64) {
	t.Helper()
	assertMachinesEqual(t, name, ref, par, refCyc, parCyc)
	assertClockAccounting(t, par, parCyc)
	sr, sp := ref.StatsSnapshot(), par.StatsSnapshot()
	if !sr.Equal(sp) {
		for i := range sr.Samples {
			if i < len(sp.Samples) && sr.Samples[i] != sp.Samples[i] {
				t.Errorf("%s: stat %s depends on the worker count: %+v vs %+v", name, sr.Samples[i].Name, sr.Samples[i], sp.Samples[i])
			}
		}
	}
}

// TestParallelEquivalenceKernels differences Workers=2,4 against
// Workers=1 for every Table IV kernel under traditional and
// scoped fences, with and without in-window speculation.
func TestParallelEquivalenceKernels(t *testing.T) {
	benches := []string{"dekker", "wsq", "msn", "harris", "barnes", "radiosity", "pst", "ptc", "nested-scope", "fence-drain"}
	for _, bench := range benches {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			for _, spec := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/spec=%v", bench, mode, spec)
				t.Run(name, func(t *testing.T) {
					opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
					cfg := machine.DefaultConfig()
					cfg.Core.InWindowSpec = spec
					mRef, refCyc := runWorkers(t, bench, opts, cfg, 1)
					for _, w := range parallelWorkerCounts {
						mPar, parCyc := runWorkers(t, bench, opts, cfg, w)
						assertWorkersEqual(t, fmt.Sprintf("%s/workers=%d", name, w), mRef, mPar, refCyc, parCyc)
					}
				})
			}
		}
	}
}

// TestParallelEquivalenceDepth3 re-runs the kernel differential on a
// three-level hierarchy, where hazard scans see middle private banks
// and different latency structure.
func TestParallelEquivalenceDepth3(t *testing.T) {
	for _, info := range kernels.All() {
		bench := info.Name
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("depth3/%s/%v", bench, mode)
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
				cfg := machine.DefaultConfig()
				cfg.Mem = memsys.DepthConfig(3)
				mRef, refCyc := runWorkers(t, bench, opts, cfg, 1)
				for _, w := range parallelWorkerCounts {
					mPar, parCyc := runWorkers(t, bench, opts, cfg, w)
					assertWorkersEqual(t, fmt.Sprintf("%s/workers=%d", name, w), mRef, mPar, refCyc, parCyc)
				}
			})
		}
	}
}

// TestParallelEquivalenceLitmus differences every litmus test and
// machine configuration across worker counts. Litmus programs are
// all-interaction, so these runs mostly exercise the abort path — every
// epoch must vanish without trace.
func TestParallelEquivalenceLitmus(t *testing.T) {
	tests := []*litmus.Test{
		litmus.StoreBuffering(false, isa.ScopeGlobal),
		litmus.StoreBuffering(true, isa.ScopeGlobal),
		litmus.StoreBuffering(true, isa.ScopeSet),
		litmus.MessagePassing(false),
		litmus.MessagePassing(true),
		litmus.LoadBuffering(),
		litmus.IRIW(),
		litmus.ClassScopedSB(),
		litmus.ScopedSBLeaky(),
		litmus.SBWithStoreStoreFence(),
		litmus.MessagePassingSS(isa.ScopeGlobal),
		litmus.MessagePassingSS(isa.ScopeClass),
		litmus.CASIncrement(4, 16),
		litmus.CoWW(),
		litmus.MessagePassingFiner(),
	}
	cfgs := map[string]func(*machine.Config){
		"base": func(*machine.Config) {},
		"spec": func(c *machine.Config) { c.Core.InWindowSpec = true },
		"fifo": func(c *machine.Config) { c.Core.FIFOStoreBuffer = true },
		"spec-shadow": func(c *machine.Config) {
			c.Core.InWindowSpec = true
			c.Core.Recovery = cpu.RecoveryShadow
		},
	}
	for cfgName, tweak := range cfgs {
		for _, lt := range tests {
			name := fmt.Sprintf("%s/%s", cfgName, lt.Name)
			t.Run(name, func(t *testing.T) {
				cfg := litmus.DefaultMachineConfig()
				tweak(&cfg)
				run := func(workers int) (*machine.Machine, int64) {
					c := cfg
					c.Parallel.Workers = workers
					m, err := machine.New(c, lt.Program, lt.Threads)
					if err != nil {
						t.Fatalf("machine: %v", err)
					}
					cyc, err := m.Run(context.Background())
					if err != nil {
						t.Fatalf("run (workers=%d): %v", workers, err)
					}
					return m, cyc
				}
				mRef, refCyc := run(1)
				for _, w := range parallelWorkerCounts {
					mPar, parCyc := run(w)
					assertWorkersEqual(t, fmt.Sprintf("%s/workers=%d", name, w), mRef, mPar, refCyc, parCyc)
				}
			})
		}
	}
}

// TestParallelEquivalenceManyCore differences the scale kernels on wide
// machines — 65 cores (first paged-sharer configuration past the inline
// bitmask) and 256 cores — and additionally requires that the epoch
// machinery actually engaged: the scale kernels' long private compute
// phases are exactly the traffic optimistic epochs exist to commit, so a
// run that never commits an epoch means the epoch driver silently
// degraded to sequential stepping.
func TestParallelEquivalenceManyCore(t *testing.T) {
	if testing.Short() {
		t.Skip("many-core differential is slow")
	}
	for _, tc := range []struct {
		bench    string
		cores    int
		workload int // scale's balanced ring needs longer compute phases than the straggler variant
	}{
		{"scale", 65, 4},
		{"scale-imb", 65, 1},
		{"scale", 256, 4},
		{"scale-imb", 256, 1},
	} {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("%s/%d/%v", tc.bench, tc.cores, mode)
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Threads: tc.cores, Ops: 2, Workload: tc.workload}
				cfg := machine.DefaultConfig()
				cfg.Cores = tc.cores
				mRef, refCyc := runWorkers(t, tc.bench, opts, cfg, 1)
				for _, w := range parallelWorkerCounts {
					mPar, parCyc := runWorkers(t, tc.bench, opts, cfg, w)
					assertWorkersEqual(t, fmt.Sprintf("%s/workers=%d", name, w), mRef, mPar, refCyc, parCyc)
					cs := mPar.Clock()
					if cs.Epochs == cs.EpochFails {
						t.Errorf("no epoch ever committed on %s (workers=%d): %+v", name, w, cs)
					}
					if cs.EpochCycles == 0 {
						t.Errorf("epochs committed zero cycles on %s (workers=%d): %+v", name, w, cs)
					}
				}
			})
		}
	}
}

// TestParallelObservedRunsEpochs pins that a counter-only observer keeps
// a machine on the epoch driver: on the straggler kernel (four cores
// already commit epochs) an observed Run at Workers=1 and Workers=2 must
// commit epoch cycles, and still tally exactly the events and produce
// exactly the stats of an observed naive run. Events raised inside an
// epoch reach the observer only when it commits, on the driver
// goroutine; the Run side's observer is deliberately unsynchronized, so
// under -race this also certifies it is never called from two workers
// at once.
func TestParallelObservedRunsEpochs(t *testing.T) {
	for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := kernels.Options{Mode: mode, Threads: 4, Ops: 1, Workload: 1}
			cfg := machine.DefaultConfig()
			cfg.Cores = 4

			_, mN := buildKernelMachine(t, "scale-imb", opts, cfg)
			obsN := trace.NewCountingObserver()
			trace.AttachObserver(mN, obsN)
			nc := naiveRun(t, mN)

			var mRef *machine.Machine
			var refCyc int64
			for _, w := range []int{1, 2} {
				name := fmt.Sprintf("%v/workers=%d", mode, w)
				cfg.Parallel.Workers = w
				_, m := buildKernelMachine(t, "scale-imb", opts, cfg)
				obs := tallyObserver{}
				trace.AttachObserver(m, obs)
				cyc, err := m.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if cs := m.Clock(); cs.EpochCycles == 0 {
					t.Errorf("%s: observed run committed no epoch cycles: %+v", name, cs)
				}
				assertMachinesEqual(t, name, mN, m, nc, cyc)
				if ne, ee := obsN.Counts(), map[cpu.TraceEvent]uint64(obs); !reflect.DeepEqual(ne, ee) {
					t.Errorf("%s: observer tallies diverged from the naive run:\nnaive %v\nrun   %v", name, ne, ee)
				}
				if mRef == nil {
					mRef, refCyc = m, cyc
				} else {
					assertWorkersEqual(t, name, mRef, m, refCyc, cyc)
				}
			}
		})
	}
}

// TestParallelCancelManyCore pins prompt cancellation on a wide machine.
// On the 256-core straggler kernel a single epoch attempt steps every
// core up to the horizon, which takes hundreds of milliseconds, so the
// workers must notice a cancellation between cores rather than only
// between attempts, and the sequential leg must poll per core-cycle
// rather than per machine cycle. Cancels are fired at a few delays so
// they land in epochs and in sequential legs; each must end Run with
// context.Canceled well within one attempt's running time (a few
// milliseconds is typical; an attempt runs 200-600 ms on a 2-vCPU host),
// and leave the machine exactly where per-cycle stepping would be at the
// cycle it reports.
func TestParallelCancelManyCore(t *testing.T) {
	const cores = 256
	for _, w := range []int{1, 2} {
		for _, delay := range []time.Duration{100 * time.Millisecond, 300 * time.Millisecond} {
			name := fmt.Sprintf("workers=%d/after=%v", w, delay)
			opts := kernels.Options{Mode: kernels.Traditional, Threads: cores, Ops: 40, Workload: 1}
			cfg := machine.DefaultConfig()
			cfg.Cores = cores
			cfg.Parallel.Workers = w
			_, m := buildKernelMachine(t, "scale-imb", opts, cfg)
			ctx, cancel := context.WithCancel(context.Background())
			fired := make(chan time.Time, 1)
			timer := time.AfterFunc(delay, func() {
				fired <- time.Now()
				cancel()
			})
			cyc, err := m.Run(ctx)
			returned := time.Now()
			timer.Stop()
			cancel()
			if err != context.Canceled {
				t.Fatalf("%s: Run returned %v, want context.Canceled", name, err)
			}
			if lag := returned.Sub(<-fired); lag > 250*time.Millisecond {
				t.Errorf("%s: Run returned %v after the cancel", name, lag)
			}
			if cyc != m.Cycle() {
				t.Errorf("%s: cancelled Run reported %d cycles, machine at %d", name, cyc, m.Cycle())
			}
			// Wherever the cancel landed, the machine stopped in a state
			// per-cycle stepping passes through.
			_, mN := buildKernelMachine(t, "scale-imb", opts, cfg)
			for mN.Cycle() < cyc {
				mN.Step()
			}
			assertMachinesEqual(t, name, mN, m, mN.Cycle(), cyc)
			assertClockAccounting(t, m, cyc)
		}
	}
}

// tallyObserver counts observer events with no locking at all.
type tallyObserver map[cpu.TraceEvent]uint64

func (o tallyObserver) Observe(_ int, event uint8, n uint64) { o[cpu.TraceEvent(event)] += n }

// TestParallelTracedFallsBack pins the sequential fallback: a traced
// machine must never attempt an epoch, whatever Workers says.
func TestParallelTracedFallsBack(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Parallel.Workers = 4
	_, m := buildKernelMachine(t, "fence-drain",
		kernels.Options{Mode: kernels.Traditional, Ops: 20}, cfg)
	for i := 0; i < m.Cores(); i++ {
		m.Core(i).SetTracer(countingTracer{})
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	cs := m.Clock()
	if cs.Epochs != 0 {
		t.Fatalf("traced machine attempted epochs: %+v", cs)
	}
	if !cs.TracerPinned {
		t.Fatalf("traced fallback did not pin: %+v", cs)
	}
}
