package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"sfence/internal/cpu"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/stats"
)

// simResult is one simulation's outcome and the host time its layers
// took. Times are measured with or without a tracer.
type simResult struct {
	res      kernels.Result
	clock    machine.ClockStats
	setup    time.Duration // kernels.Build + machine.New + image init
	run      time.Duration // inside Machine.Run
	total    time.Duration // build through snapshot
	newAlloc uint64        // bytes allocated while machine.New ran (process-wide)
}

// simulate does what kernels.Run does, one public call at a time, so each
// layer gets its own span: build the kernel, construct the machine, seed
// the memory image, run, verify, and snapshot the stats registry. The
// kernels.Result it returns is the one kernels.Run would return; the
// suite workload feeds it through the run cache into the experiments,
// whose envelopes are checked byte for byte against direct lab.Run
// digests.
func simulate(ctx context.Context, tr *Tracer, bench string, opts kernels.Options, cfg machine.Config) (simResult, error) {
	var out simResult
	start := time.Now()
	var (
		k   *kernels.Kernel
		m   *machine.Machine
		err error
	)
	out.setup += tr.Do(ctx, "kernels.build", func(context.Context) { k, err = kernels.Build(bench, opts) })
	if err != nil {
		return out, err
	}
	if len(k.Threads) > cfg.Cores {
		return out, fmt.Errorf("%s needs %d cores, machine has %d", k.Name, len(k.Threads), cfg.Cores)
	}
	before := heapAllocBytes()
	out.setup += tr.Do(ctx, "machine.new", func(context.Context) { m, err = machine.New(cfg, k.Program, k.Threads) })
	out.newAlloc = heapAllocBytes() - before
	if err != nil {
		return out, err
	}
	out.setup += tr.Do(ctx, "memsys.image_init", func(context.Context) {
		for addr, val := range k.MemInit {
			m.Image().Store(addr, val)
		}
		if k.InitImage != nil {
			k.InitImage(m.Image())
		}
	})
	var cycles int64
	out.run = tr.Do(ctx, "machine.run", func(ctx context.Context) { cycles, err = m.Run(ctx) })
	if err != nil {
		return out, fmt.Errorf("%s: %w", k.Name, err)
	}
	if k.Verify != nil {
		tr.Do(ctx, "kernels.verify", func(context.Context) { err = k.Verify(m.Image()) })
		if err != nil {
			return out, fmt.Errorf("%s verification failed: %w", k.Name, err)
		}
	}
	tr.Do(ctx, "stats.snapshot", func(context.Context) {
		snap := m.StatsSnapshot()
		profiles := make([][]cpu.FenceSite, m.Cores())
		for i := range profiles {
			profiles[i] = m.Core(i).FenceProfile()
		}
		out.res = kernels.Result{
			Cycles:     cycles,
			FenceStall: snap.UValue("machine.fence_idle_cycles"),
			CoreCycles: snap.UValue("machine.core_cycles"),
			Profile:    cpu.MergeFenceProfiles(profiles...),
			Snapshot:   snap,
		}
		out.res.Stats.Committed = snap.UValue("machine.committed")
		out.res.Stats.CommittedFences = snap.UValue("machine.committed_fences")
		out.res.Stats.Mispredicts = snap.UValue("machine.mispredicts")
		out.res.Stats.L1Misses = snap.UValue("machine.mem.l1_misses")
		out.res.Stats.L2Misses = snap.UValue("machine.mem.l2_misses")
	})
	out.clock = m.Clock()
	out.total = time.Since(start)
	return out, nil
}

// heapAllocBytes is the process's cumulative heap allocation. Reading it
// does not stop the world.
func heapAllocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Digest fingerprints what a simulation computed: its cycle count and
// every stats-registry sample except machine.clock.*, which records how
// the simulator's clock ran rather than what the simulated hardware did
// and so differs between the sequential and epoch-parallel runners.
func Digest(cycles int64, snap stats.Snapshot) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles %d\n", cycles)
	for _, s := range snap.Samples {
		if strings.HasPrefix(s.Name, "machine.clock.") {
			continue
		}
		fmt.Fprintf(h, "%s %s %d %x\n", s.Name, s.Kind, s.Value, math.Float64bits(s.Float))
	}
	return hex.EncodeToString(h.Sum(nil))[:20]
}

// bytesDigest fingerprints an experiment envelope.
func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:20]
}

// residentBytes is the process's current resident set size, read from
// /proc/self/statm (Linux); 0 where that is unavailable.
func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
