package cpu

import (
	"sfence/internal/isa"
	"sfence/internal/stats"
)

// TraceEvent identifies a pipeline event reported to a Tracer.
type TraceEvent uint8

// Pipeline trace events.
const (
	TraceDecode     TraceEvent = iota // instruction entered the ROB
	TraceExecute                      // execution began (detail: readyAt)
	TraceComplete                     // result available (detail: value)
	TraceRetire                       // architecturally committed
	TraceSquash                       // discarded by misprediction/replay
	TraceFenceStall                   // issue or retire blocked by a fence
	TraceSBIssue                      // store left the SB for memory (detail: readyAt)
	TraceSBComplete                   // store became globally visible (detail: address)

	numTraceEvents = iota
)

func (e TraceEvent) String() string {
	switch e {
	case TraceDecode:
		return "decode"
	case TraceExecute:
		return "execute"
	case TraceComplete:
		return "complete"
	case TraceRetire:
		return "retire"
	case TraceSquash:
		return "squash"
	case TraceFenceStall:
		return "fence-stall"
	case TraceSBIssue:
		return "sb-issue"
	case TraceSBComplete:
		return "sb-complete"
	}
	return "event?"
}

// Tracer receives pipeline events. Implementations must be cheap: the core
// calls them inline. A nil tracer costs one branch per event site.
type Tracer interface {
	Trace(cycle int64, core int, ev TraceEvent, seq uint64, in isa.Instruction, detail int64)
}

// SetTracer attaches (or detaches, with nil) a pipeline tracer. Attaching
// one drops any spin detection in progress: traced cores step cycle by
// cycle.
func (c *Core) SetTracer(t Tracer) {
	c.tracer = t
	c.spinReset()
}

// SetObserver attaches (or detaches, with nil) a counter-only observer.
// The observer receives the same pipeline events a Tracer does, but only
// as (event, count) increments — no cycle, sequence, or instruction
// detail — which is exactly what keeps it compatible with the two-speed
// clock: the machine keeps fast-forwarding with an observer attached, and
// FastForward credits skipped stall-cycle events in bulk (see clock.go).
// Inside a parallel epoch the events are held back and delivered by
// EpochCommit on the machine's driver goroutine, so the observer is never
// called concurrently by one machine and never sees an aborted epoch.
// Attaching an observer never changes simulation results.
func (c *Core) SetObserver(o stats.Observer) {
	c.observer = o
	c.spinReset() // event bookkeeping baseline changed; re-detect
}

// observe reports n occurrences of ev to the attached observer, or
// buffers them while an epoch is open.
func (c *Core) observe(ev TraceEvent, n uint64) {
	if c.localOnly {
		c.obsPending[ev] += n
		return
	}
	c.observer.Observe(c.id, uint8(ev), n)
}

func (c *Core) trace(ev TraceEvent, seq uint64, in isa.Instruction, detail int64) {
	if c.observer != nil {
		c.observe(ev, 1)
		if c.spin.phase == spinArmed {
			// Tally the armed window's events so a confirmed spin can
			// credit the observer per skipped period.
			c.spin.evAt[ev]++
		}
	}
	if c.tracer != nil {
		c.tracer.Trace(c.cycle, c.id, ev, seq, in, detail)
	}
}
