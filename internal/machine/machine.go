// Package machine assembles cores, the cache hierarchy, and the memory
// image into a deterministic chip-multiprocessor: a single global clock
// ticks every core in a fixed order, so every run of the same program and
// configuration produces bit-identical results.
//
// Construction (New) also wires the observability substrate: every
// component registers its counters into one stats.Registry — core
// pipeline and S-Fence hardware stats under "coreN.*", that core's
// per-cache-level counters under "coreN.mem.l<k>_*", machine-wide
// derived sums and the clock accounting under "machine.*" — and
// StatsSnapshot evaluates all of it into one deterministically ordered
// snapshot.
//
// Run drives every untraced machine through one epoch driver:
// optimistic epochs, in which each core advances on its own clock while
// its accesses stay private-L1 hits, glued together by a sequential
// two-speed loop (per-cycle stepping while any core makes progress, a
// fast-forward jump to the earliest per-core wakeup when every core is
// quiescent). Skipped and epoch-committed cycles are credited so results
// stay bit-identical to naive stepping, and Config.Parallel.Workers only
// sets how many goroutines step the cores inside an epoch (see DESIGN.md,
// "The two-speed event-driven clock" and "The parallel epoch-barriered
// simulator core"). A traced machine steps every cycle on the sequential
// loop.
package machine

import (
	"context"
	"fmt"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/memsys"
	"sfence/internal/stats"
)

// Config aggregates the whole-machine parameters.
type Config struct {
	Cores     int
	Core      cpu.Config
	Mem       memsys.Config
	ImageSize int64 // bytes of simulated address space; pages are allocated on first store
	// MaxCycles aborts Run when exceeded (0 means the DefaultMaxCycles
	// safety net).
	MaxCycles int64
	// Parallel sets the thread count of Run's epoch driver. It never
	// changes which algorithm runs, nor any result.
	Parallel ParallelConfig
}

// ParallelConfig sets how many goroutines step cores inside the
// optimistic epochs of Run (see runParallel); 0 and 1 both mean one.
// Workers only changes wall-clock time: snapshots — machine.clock.*
// included — registers, and memory are bit-identical for any worker
// count.
type ParallelConfig struct {
	Workers int
}

// DefaultMaxCycles is the runaway-simulation safety net.
const DefaultMaxCycles = 200_000_000

// DefaultConfig returns the paper's Table III machine: an 8-core CMP with
// the default core and memory-system parameters.
func DefaultConfig() Config {
	return Config{
		Cores:     8,
		Core:      cpu.DefaultConfig(),
		Mem:       memsys.DefaultConfig(),
		ImageSize: 64 << 20,
	}
}

// Validate checks the aggregate configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > memsys.MaxCores {
		return fmt.Errorf("machine: %d cores out of range [1,%d]", c.Cores, memsys.MaxCores)
	}
	if c.Parallel.Workers < 0 {
		return fmt.Errorf("machine: %d parallel workers (want >= 0)", c.Parallel.Workers)
	}
	if c.ImageSize < 1024 {
		return fmt.Errorf("machine: image size %d too small", c.ImageSize)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}

// Thread describes one hardware thread: its entry point and initial
// register values.
type Thread struct {
	Entry string // program entry-point name
	Regs  map[isa.Reg]int64
}

// Machine is a running simulation instance.
type Machine struct {
	cfg   Config
	prog  *isa.Program
	img   *memsys.Image
	hier  *memsys.Hierarchy
	cores []*cpu.Core
	cycle int64

	reg   *stats.Registry
	clock ClockStats

	// afterEpochAbort, when set (only tests set it), runs on Run's
	// goroutine after every aborted epoch has been rolled back.
	afterEpochAbort func()
}

// ClockStats reports how the two-speed clock spent a Run: SlowTicks is the
// number of cycles stepped one by one, SkippedCycles the cycles covered by
// fast-forward jumps, and Jumps the number of jumps. SpinJumps counts the
// jumps that carried at least one core through a confirmed busy-wait spin
// (see cpu's spin detector), and SpinSkippedCycles the cycles those jumps
// covered — both are included in Jumps/SkippedCycles, not additional.
// TracerPinned records that fast-forwarding was disabled because a
// per-cycle pipeline tracer was attached — so zero jumps on a traced run
// reads as "pinned", not "never idle". Counter-only observers (see
// cpu.Core.SetObserver) do not pin the clock and never set the flag.
//
// The epoch driver adds its own accounting: Epochs counts attempted
// optimistic epochs, EpochFails the ones that aborted and were re-run
// sequentially, and EpochCycles the machine cycles committed by
// successful epochs. SlowTicks+SkippedCycles+EpochCycles equals the
// final cycle count. All of it lives under machine.clock.* because it
// describes how the clock ran, not what the simulated hardware did.
type ClockStats struct {
	SlowTicks         int64
	SkippedCycles     int64
	Jumps             int64
	SpinJumps         int64
	SpinSkippedCycles int64
	Epochs            int64
	EpochFails        int64
	EpochCycles       int64
	TracerPinned      bool
}

// New builds a machine running prog with one thread per entry of threads.
// Thread i runs on core i; cores beyond len(threads) stay idle.
func New(cfg Config, prog *isa.Program, threads []Thread) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("machine: program rejected: %w", err)
	}
	if len(threads) == 0 || len(threads) > cfg.Cores {
		return nil, fmt.Errorf("machine: %d threads for %d cores", len(threads), cfg.Cores)
	}
	img := memsys.NewImage(cfg.ImageSize)
	hier, err := memsys.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, prog: prog, img: img, hier: hier, reg: stats.NewRegistry()}
	root := m.reg.Root()
	for i, th := range threads {
		pc, err := prog.Entry(th.Entry)
		if err != nil {
			return nil, err
		}
		core, err := cpu.NewCore(i, cfg.Core, prog, pc, th.Regs, img, hier)
		if err != nil {
			return nil, err
		}
		core.OnStoreComplete = m.broadcastStore
		m.cores = append(m.cores, core)
		// Every component owns its counters and registers them here, at
		// construction, under its place in the hierarchy: core pipeline
		// and S-Fence hardware stats under "coreN.*", its cache-side
		// counters under "coreN.mem.*".
		g := root.Sub(fmt.Sprintf("core%d", i))
		core.RegisterStats(g)
		hier.RegisterStats(g.Sub("mem"), i)
	}
	// Remote coherence actions (invalidations, downgrades) are reported
	// line-by-line to the victim core's spin detector, which drops any
	// detection whose loop reads the disturbed line. Cores beyond the
	// thread count have no spin state worth perturbing.
	hier.OnDisturb = func(core int, line int64) {
		if core < len(m.cores) {
			m.cores[core].SpinNoteLineDisturb(line)
		}
	}
	m.registerMachineStats(root.Sub("machine"))
	return m, nil
}

// registerMachineStats publishes the whole-machine derived stats: the
// global cycle, cross-core sums (what TotalStats reports), memory-system
// totals, the two-speed clock accounting, and the paper's headline
// fence-stall fraction. All are closures evaluated only at snapshot time.
func (m *Machine) registerMachineStats(g *stats.Group) {
	sum := func(pick func(*cpu.Stats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, c := range m.cores {
				t += pick(c.Stats())
			}
			return t
		}
	}
	g.Derived("cycles", "current global cycle", func() uint64 { return uint64(m.cycle) })
	g.Derived("core_cycles", "active cycles summed across cores", sum(func(s *cpu.Stats) uint64 { return s.Cycles.Get() }))
	g.Derived("committed", "committed instructions summed across cores", sum(func(s *cpu.Stats) uint64 { return s.Committed.Get() }))
	g.Derived("committed_fences", "committed fences summed across cores", sum(func(s *cpu.Stats) uint64 { return s.CommittedFences.Get() }))
	g.Derived("fence_stall_cycles", "fence stall cycles summed across cores", sum(func(s *cpu.Stats) uint64 { return s.FenceStallCycles.Get() }))
	g.Derived("fence_idle_cycles", "fence idle cycles summed across cores (the stacked-bar metric)", sum(func(s *cpu.Stats) uint64 { return s.FenceIdleCycles.Get() }))
	g.Derived("mispredicts", "branch mispredictions summed across cores", sum(func(s *cpu.Stats) uint64 { return s.Mispredicts.Get() }))
	g.Formula("fence_stall_fraction", "fence idle cycles over total core cycles", func() float64 {
		t := m.TotalStats()
		return t.FenceStallFraction()
	})

	// One cross-core miss sum per cache level, plus hit sums for the
	// shared levels (private-level hits stay a per-core property under
	// coreN.mem.l<k>_hits).
	mem := g.Sub("mem")
	for k := 0; k < m.hier.Depth(); k++ {
		k := k
		n := k + 1
		mem.Derived(fmt.Sprintf("l%d_misses", n), fmt.Sprintf("L%d misses summed across cores", n),
			func() uint64 { return m.hier.LevelMisses(k) })
		if m.hier.LevelConfig(k).Shared {
			mem.Derived(fmt.Sprintf("l%d_hits", n), fmt.Sprintf("L%d hits summed across cores", n),
				func() uint64 { return m.hier.LevelHits(k) })
		}
	}

	clock := g.Sub("clock")
	clock.Derived("slow_ticks", "cycles stepped one by one by the two-speed clock", func() uint64 { return uint64(m.clock.SlowTicks) })
	clock.Derived("skipped_cycles", "cycles covered by fast-forward jumps", func() uint64 { return uint64(m.clock.SkippedCycles) })
	clock.Derived("jumps", "fast-forward jumps taken", func() uint64 { return uint64(m.clock.Jumps) })
	clock.Derived("spin_jumps", "jumps that carried at least one core through a confirmed spin", func() uint64 { return uint64(m.clock.SpinJumps) })
	clock.Derived("spin_skipped_cycles", "cycles covered by spin-carrying jumps", func() uint64 { return uint64(m.clock.SpinSkippedCycles) })
	clock.Derived("epochs", "optimistic parallel epochs attempted", func() uint64 { return uint64(m.clock.Epochs) })
	clock.Derived("epoch_fails", "epochs aborted and re-run sequentially", func() uint64 { return uint64(m.clock.EpochFails) })
	clock.Derived("epoch_cycles", "machine cycles committed by successful epochs", func() uint64 { return uint64(m.clock.EpochCycles) })
	clock.Derived("tracer_pinned", "1 when a per-cycle tracer disabled fast-forwarding", func() uint64 {
		if m.clock.TracerPinned {
			return 1
		}
		return 0
	})
	// Per-core spin accounting lives under machine.clock (not coreN.*) on
	// purpose: spin counters describe how the clock ran, not what the
	// simulated hardware did, and everything outside machine.clock.* must
	// stay bit-identical between the naive and event-driven clocks.
	for i, c := range m.cores {
		c := c
		clock.Derived(fmt.Sprintf("core%d_spin_jumps", i), fmt.Sprintf("spin-forward jumps applied to core %d", i),
			c.SpinJumps)
		clock.Derived(fmt.Sprintf("core%d_spin_skipped_cycles", i), fmt.Sprintf("cycles core %d skipped inside confirmed spins", i),
			c.SpinSkippedCycles)
	}
}

// StatsRegistry exposes the machine's hierarchical statistics registry.
func (m *Machine) StatsRegistry() *stats.Registry { return m.reg }

// StatsSnapshot evaluates every registered stat — per-core pipeline and
// S-Fence hardware counters, per-core cache counters, machine totals, and
// clock accounting — into one deterministically ordered snapshot.
func (m *Machine) StatsSnapshot() stats.Snapshot { return m.reg.Snapshot() }

// broadcastStore delivers a completed store to the cores that might care.
// Only a core holding a load that speculatively executed past a fence can
// react to a remote store (see Core.NoteRemoteStore), so the spec-load
// occupancy count is an exact snoop filter: skipped cores would have
// treated the notification as a no-op. This subsumes a directory-mask
// filter (a core with a speculative load on the line is a sharer), and
// unlike the directory's sharer mask — which an intervening write to the same line
// resets while the speculative load is still in flight — it can never skip
// a core that must replay. See DESIGN.md, "Snoop filtering".
// Spin detection rides the same event: the store's cache access already
// perturbed remote copies when it ISSUED (coherence traffic bumps the
// victims' memory versions), but the Image word only changes now, at
// completion — potentially hundreds of cycles later, with no coherence
// action at all if the spinner re-fetched the line in between. A core
// spinning on this address must therefore be dropped out of its confirmed
// spin here, immediately, before the machine decides whether to jump past
// the cycle in which the new value becomes readable.
func (m *Machine) broadcastStore(from int, addr int64) {
	for _, c := range m.cores {
		if c.ID() == from {
			continue
		}
		c.SpinNoteRemoteStore(addr)
		if c.SpecLoadsInFlight() > 0 {
			c.NoteRemoteStore(addr)
		}
	}
}

// Image exposes the memory image for initialization and verification.
func (m *Machine) Image() *memsys.Image { return m.img }

// Hierarchy exposes the cache hierarchy (for statistics).
func (m *Machine) Hierarchy() *memsys.Hierarchy { return m.hier }

// Cycle returns the current global cycle.
func (m *Machine) Cycle() int64 { return m.cycle }

// Cores returns the number of active cores (threads).
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns the i-th core.
func (m *Machine) Core(i int) *cpu.Core { return m.cores[i] }

// Step advances the machine one cycle.
func (m *Machine) Step() {
	m.stepCycle()
}

// stepCycle ticks every core once and folds the whole-machine status scans
// into the same pass, so Run does not re-walk the cores for Done/Fault
// every cycle: it reports whether all cores are done, the first core
// fault, and whether any core is still active (made forward progress this
// cycle or holds undelivered snoop notifications). A core in a confirmed
// stable spin does not count as active even though it progresses every
// cycle — that is the whole point of spin detection. The per-core checks
// here can be stale (a later core's tick may perturb an earlier core's
// spin), but only toward active == true, i.e. an extra slow tick; the jump
// block in Run re-evaluates SpinActive after all ticks and its NextWakeup
// minimum yields a zero-length jump for any core perturbed late.
func (m *Machine) stepCycle() (allDone bool, fault error, active bool) {
	allDone = true
	for _, c := range m.cores {
		c.Tick(m.cycle)
		if !c.Done() {
			allDone = false
		}
		if c.Active() && !c.SpinActive() {
			active = true
		}
		if fault == nil {
			fault = c.Fault()
		}
	}
	m.cycle++
	m.clock.SlowTicks++
	return allDone, fault, active
}

// Clock returns the two-speed clock's accounting so far.
func (m *Machine) Clock() ClockStats { return m.clock }

// Done reports whether every core has halted and drained.
func (m *Machine) Done() bool {
	for _, c := range m.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Fault returns the first core fault, if any.
func (m *Machine) Fault() error {
	for _, c := range m.cores {
		if err := c.Fault(); err != nil {
			return err
		}
	}
	return nil
}

// traced reports whether any core has a pipeline tracer attached. Tracers
// observe per-cycle events — notably one TraceFenceStall per stalled cycle
// — so a traced machine must step every cycle (the slow path).
func (m *Machine) traced() bool {
	for _, c := range m.cores {
		if c.Traced() {
			return true
		}
	}
	return false
}

// ctxCheckInterval bounds how many core-cycles (loop iterations times
// cores, since each iteration steps or scans every core) the sequential
// loop executes between context checks. A channel poll per cycle would
// slow the hot loop measurably; a poll every few thousand core-cycles
// keeps the overhead unmeasurable while still reacting to cancellation
// within a millisecond of wall-clock time on a machine of any width.
const ctxCheckInterval = 4096

// Run executes until every core is done, a core faults, the context is
// cancelled, or the cycle budget is exhausted. It returns the total cycle
// count. A cancelled or expired context makes Run return promptly with
// ctx.Err() (checked every ctxCheckInterval core-cycles on the
// sequential loop and after every slice inside an epoch, so a
// simulation can be time-boxed with context.WithTimeout or aborted with
// context.WithCancel mid-cycle-loop); the machine is left at the cycle it
// reached, in exactly the state per-cycle stepping has there, and is
// safe to inspect, but not to resume.
//
// Run sends every untraced machine, observed ones included, through the
// epoch driver (runParallel): optimistic epochs in which each core runs
// its own two-speed loop, and between them the sequential two-speed loop
// (runSeq), which ticks cycle by cycle while any core is active and,
// when every core is quiescent — waiting on cache misses, store-buffer
// drains, or redirect bubbles — jumps straight to the earliest per-core
// wakeup, crediting the skipped cycles to each core's stall accounting
// exactly as per-cycle stepping would have. The per-cycle timing model
// is untouched: results and statistics are bit-identical to naive
// stepping (asserted by TestClockEquivalence), and Config.Parallel.Workers
// changes only wall time. Attaching a tracer pins the sequential loop's
// slow path, because tracers observe per-cycle events.
func (m *Machine) Run(ctx context.Context) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	limit := m.cfg.MaxCycles
	if limit <= 0 {
		limit = DefaultMaxCycles
	}
	if err := ctx.Err(); err != nil {
		return m.cycle, err
	}
	if m.Done() {
		return m.cycle, nil
	}
	// A pre-existing fault (from manual stepping) is checked once; from
	// here on stepCycle reports faults as they happen, so the loop never
	// re-scans the cores.
	if err := m.Fault(); err != nil {
		return m.cycle, err
	}
	if m.traced() {
		_, err := m.runSeq(ctx, limit, limit)
		return m.cycle, err
	}
	return m.runParallel(ctx, limit)
}

// runSeq is the sequential two-speed loop: it executes while m.cycle <
// until, returning (true, nil) when every core finished, (false, err)
// on a fault, an exhausted cycle budget, or cancellation, and (false,
// nil) when until was reached first. Run calls it with until == limit
// for a traced machine (the budget error fires before the until return);
// the epoch driver uses bounded legs between epoch attempts.
func (m *Machine) runSeq(ctx context.Context, limit, until int64) (bool, error) {
	done := ctx.Done()
	traced := m.traced()
	untilCheck := ctxCheckInterval
	width := len(m.cores)
	for {
		if untilCheck -= width; untilCheck <= 0 {
			untilCheck = ctxCheckInterval
			select {
			case <-done:
				return false, ctx.Err()
			default:
			}
		}
		if m.cycle >= limit {
			return false, fmt.Errorf("machine: exceeded %d cycles (livelock or runaway program?)", limit)
		}
		if m.cycle >= until {
			return false, nil
		}
		allDone, fault, active := m.stepCycle()
		if allDone {
			return true, nil
		}
		if fault != nil {
			return false, fault
		}
		if active {
			continue
		}
		if traced {
			// Record explicitly that fast-forwarding is disabled, so a
			// traced run's Clock() reads "pinned" instead of silently
			// showing zero jumps. Counter-only observers do not pin.
			m.clock.TracerPinned = true
			continue
		}
		// Every core is idle or in a confirmed spin: fast-forward to the
		// earliest wakeup of a non-spinning core. A core with no scheduled
		// event reports cpu.NeverWakes; if all do (a deadlocked or
		// all-spinning program), the clamp below jumps straight to the
		// cycle budget, where the loop reports the same livelock error —
		// with the same statistics — the naive clock would have spun its
		// way to. Spinning cores advance in whole periods only (their
		// per-period stat deltas are what gets credited), so a jump
		// carrying spinners is rounded down to a multiple of the combined
		// stride; the remainder is slow-ticked by later iterations.
		wake := cpu.NeverWakes
		nSpin := 0
		stride := int64(1)
		for _, c := range m.cores {
			if c.SpinActive() {
				nSpin++
				if stride > 0 {
					stride = lcmClamped(stride, c.SpinPeriod())
				}
				continue
			}
			if w := c.NextWakeup(); w < wake {
				wake = w
			}
		}
		if wake > limit {
			wake = limit
		}
		d := wake - m.cycle
		if d <= 0 {
			continue
		}
		if nSpin > 0 {
			if stride <= 0 || d < stride {
				continue // stride overflow or gap too small: slow-step it
			}
			d -= d % stride
		}
		for _, c := range m.cores {
			if c.SpinActive() {
				c.SpinForward(d)
			} else {
				c.FastForward(d)
			}
		}
		m.cycle += d
		m.clock.SkippedCycles += d
		m.clock.Jumps++
		if nSpin > 0 {
			m.clock.SpinJumps++
			m.clock.SpinSkippedCycles += d
		}
	}
}

// maxSpinStride bounds the combined (least-common-multiple) period of
// concurrently spinning cores; a pathological mix of long coprime periods
// degrades to slow stepping instead of overflowing.
const maxSpinStride = 1 << 20

// lcmClamped returns lcm(a, b), or 0 when it would exceed maxSpinStride.
func lcmClamped(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	g := a
	for x := b; x != 0; {
		g, x = x, g%x
	}
	l := a / g * b
	if l > maxSpinStride {
		return 0
	}
	return l
}

// TotalStats aggregates core statistics across the machine.
func (m *Machine) TotalStats() cpu.Stats {
	var t cpu.Stats
	for _, c := range m.cores {
		t.Add(c.Stats())
	}
	return t
}
