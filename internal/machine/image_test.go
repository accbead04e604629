package machine_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"sfence/internal/isa"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/memsys"
)

// The memory image is paged, so building a machine must not pay for its
// address space: at the default 64 MB, New allocates the page directory
// and the cache and core state, well under 1 MB.
func TestNewAllocatesLessThanImageSize(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("t0")
	b.Halt()
	prog := b.MustBuild()
	cfg := machine.DefaultConfig()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := machine.New(cfg, prog, []machine.Thread{{Entry: "t0"}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("machine.New allocated %d bytes for a %d-byte image, want < 1 MB", got, cfg.ImageSize)
	}
	runtime.KeepAlive(m)
}

// buildScale builds the balanced scale ring at 8 threads, 4 rounds and
// workload 2. At this size one aborted epoch holds the first store to a
// per-thread scratch page; scale-imb at the sizes tried (4-32 threads,
// up to 16 rounds) never first-touches a page inside an aborted epoch.
func buildScale(t *testing.T, workers int) *machine.Machine {
	t.Helper()
	k, err := kernels.Build("scale", kernels.Options{Mode: kernels.Traditional, Threads: 8, Ops: 4, Workload: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Parallel.Workers = workers
	m, err := machine.New(cfg, k.Program, k.Threads)
	if err != nil {
		t.Fatal(err)
	}
	for addr, val := range k.MemInit {
		m.Image().Store(addr, val)
	}
	if k.InitImage != nil {
		k.InitImage(m.Image())
	}
	return m
}

// words lists an image's non-zero words in address order.
func words(im *memsys.Image) [][2]int64 {
	var ws [][2]int64
	im.Range(func(addr, val int64) { ws = append(ws, [2]int64{addr, val}) })
	return ws
}

// TestEpochAbortAfterFirstTouch pins the paged image under epoch aborts.
// An in-epoch store can be the first non-zero store to its page, which
// installs the page; when the epoch aborts, the undo log writes the old
// zero back and the page stays present. After every abort of a Workers 2
// scale run the image must still be Range-equal to a per-cycle run
// at the same cycle, and at least one abort must leave more pages than
// that run has (so an aborted epoch did first-touch a page). The final
// images must be Range-equal too.
func TestEpochAbortAfterFirstTouch(t *testing.T) {
	naive := buildScale(t, 1)
	par := buildScale(t, 2)
	aborts, firstTouches := 0, 0
	machine.SetAfterEpochAbort(par, func() {
		aborts++
		for naive.Cycle() < par.Cycle() {
			naive.Step()
		}
		if np, pp := naive.Image().Pages(), par.Image().Pages(); pp > np {
			firstTouches++
		}
		if !slices.Equal(words(naive.Image()), words(par.Image())) {
			t.Fatalf("after the abort at cycle %d the image differs from the per-cycle run", par.Cycle())
		}
	})
	cyc, err := par.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for !naive.Done() {
		if err := naive.Fault(); err != nil {
			t.Fatal(err)
		}
		naive.Step()
	}
	if naive.Cycle() != cyc {
		t.Errorf("cycles diverged: per-cycle %d, Workers 2 %d", naive.Cycle(), cyc)
	}
	if !slices.Equal(words(naive.Image()), words(par.Image())) {
		t.Error("final images are not Range-equal")
	}
	if firstTouches == 0 {
		t.Errorf("no epoch abort followed a first-touch store (%d aborts, clock %+v)", aborts, par.Clock())
	}
}
