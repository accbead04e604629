package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The host-speed probe.
//
// On a shared host the speed of ordinary code drifts by up to 2x over
// minutes, longer than a run, so no statistic taken inside one run
// removes it. The benchmark therefore times a fixed probe next to the
// workload and reports every end-to-end time and rate at a reference
// host speed: a time measured while one probe call took p is scaled by
// probeRefNs/p. The probe is ordinary library code (regexp matching,
// DEFLATE compression, JSON encoding and validation) fixed in this file,
// so its work never changes with the repository's code; only the host's
// speed moves it. Over seven minutes of drift on the host the benchmark was
// tuned on, the probe's time followed the simulator's with a log-log
// slope near 1, while a tight arithmetic loop moved a quarter as much.
//
// The probe never runs alongside the workload: the simulation workloads
// read it after every simulation, the suite after every experiment, the
// service after every pass.

// probeRefNs is one probe call's time at the reference host speed, about
// its median on the host the benchmark was tuned on. It only sets the
// scale of the reported figures.
const probeRefNs = 10e6

// After an operation, one probe call is taken per probePer of the
// operation's time, at most probeBurstMax; the readings before and after
// set-up, which is one long operation, take probeBurstMax. probeWarmup
// calls warm the probe before the first reading.
const (
	probePer      = 150 * time.Millisecond
	probeBurstMax = 12
	probeWarmup   = 5
)

var (
	probeLines = strings.Split(strings.Repeat("the quick brown fox 12345 jumps over lazy dogs; foo=bar baz@qux.example\n", 1200), "\n")
	probeText  = []byte(strings.Join(probeLines, "\n"))
	probeRe    = regexp.MustCompile(`[a-z]+@[a-z]+\.(com|org|example)|\d{5}`)
	probeDocs  = func() []probeDoc {
		var d []probeDoc
		for i := 0; i < 300; i++ {
			d = append(d, probeDoc{ID: i, Name: fmt.Sprintf("name-%d", i), Tags: []string{"a", "bb", strconv.Itoa(i)},
				Attrs: map[string]string{"k": "v", strconv.Itoa(i): "x"}, Score: float64(i) / 7})
		}
		return d
	}()
	// The probe reuses its buffers and its compressor, so that it
	// allocates little: in a process with a large heap, allocating would
	// make the probe pay for the collector's work on that heap, and the
	// probe would then measure the workload instead of the host.
	probeBuf   bytes.Buffer
	probeFlate *flate.Writer
	probeSink  int
)

type probeDoc struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Tags  []string          `json:"tags"`
	Attrs map[string]string `json:"attrs"`
	Score float64           `json:"score"`
}

// probeCall runs the probe once and returns how long it took, in ns.
func probeCall() float64 {
	start := time.Now()
	n := 0
	for range 4 {
		for _, line := range probeLines {
			if probeRe.MatchString(line) {
				n++
			}
		}
	}
	probeBuf.Reset()
	if probeFlate == nil {
		probeFlate, _ = flate.NewWriter(&probeBuf, 6) // level 6 is valid
	}
	probeFlate.Reset(&probeBuf)
	_, _ = probeFlate.Write(probeText[:64<<10])
	_ = probeFlate.Close()
	n += probeBuf.Len()
	for range 2 {
		probeBuf.Reset()
		_ = json.NewEncoder(&probeBuf).Encode(probeDocs) // plain structs always encode
		if !json.Valid(probeBuf.Bytes()) {
			panic("probe: invalid JSON")
		}
	}
	probeSink += n + probeBuf.Len()
	return float64(time.Since(start).Nanoseconds())
}

// probeReading is the median of n probe calls, in ns.
func probeReading(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = probeCall()
	}
	return Median(xs)
}

// probeAfter reads the host's speed after an operation that took d: the
// longer the operation, the more probe calls, so that a reading spans a
// share of host time similar to the operation's wherever operations are
// long, and one call where they are short.
func probeAfter(d time.Duration) float64 {
	return probeReading(min(max(int(d/probePer), 1), probeBurstMax))
}

// speedFactor turns a time measured between two probe results into one
// at the reference host speed.
func speedFactor(before, after float64) float64 {
	return probeRefNs / ((before + after) / 2)
}
