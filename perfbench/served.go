package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/results"
	"sfence/internal/serve"
)

// servedClients is the number of closed-loop clients: each sends its next
// job only after the previous one's result arrived.
const servedClients = 2

// servedCopies is how often each experiment appears in one pass of the
// served workload.
const servedCopies = 12

// peak_rss_mb covers passes servedRSSFrom+1 to servedRSSPasses. The job
// table grows with every job served, so a peak over the whole run would
// grow with throughput; over a fixed number of jobs it measures memory
// per unit of work. The first passes are left out because the resident
// set then still holds what the warm pass freed, until the runtime hands
// it back, which takes a time rather than a number of jobs. 40 passes
// take a few seconds today.
const (
	servedRSSFrom   = 20
	servedRSSPasses = 40
)

// JobMix is a pass's job sequence: copies of every experiment ID, in an
// order drawn from seed alone. Every seed submits the same multiset of
// jobs, so runs with different seeds load the server equally.
func JobMix(ids []string, seed int64, copies int) []string {
	var mix []string
	for i := 0; i < copies; i++ {
		mix = append(mix, ids...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// servedBench is an in-process sfence-serve on a loopback listener, with
// a memory run cache warmed during set-up so every measured job is a
// cache hit. The server keeps running, and keeps every finished job,
// for the whole run: its job table grows exactly as a long-lived server's
// does.
type servedBench struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	cache   *results.RunCache
	clients []*serve.Client
	mix     []string
	digests map[string]string

	requests  atomic.Int64 // runner calls, i.e. simulations the jobs asked for
	cycles    atomic.Int64 // simulated cycles behind the results they got
	committed atomic.Int64

	liveAtSetup uint64
	jobs        int64
	passes      int
}

func newServedBench(ctx context.Context, seed int64, d *Digests) (bench, []time.Duration, error) {
	start := time.Now()
	ids := suiteIDs()
	b := &servedBench{cache: results.NewMemCache(), mix: JobMix(ids, seed, servedCopies), digests: d.Envelopes}
	b.srv = serve.NewServer(serve.Options{Cache: b.cache, Scale: exp.Quick, Workers: 2, WrapRunner: b.wrap})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		return nil, nil, err
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	for i := 0; i < servedClients; i++ {
		b.clients = append(b.clients, &serve.Client{
			BaseURL: "http://" + ln.Addr().String(),
			HTTP:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			Tenant:  fmt.Sprintf("client%d", i),
		})
	}
	// The warm pass runs every experiment once, split over the clients;
	// its envelopes must be byte-identical to a direct lab.Run.
	var errs []string
	var mu sync.Mutex
	b.each(len(ids), func(c, i int) {
		env, err := b.job(ctx, nil, c, ids[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", ids[i], err))
		}
		if got := bytesDigest(env); err == nil && got != b.digests[ids[i]] {
			errs = append(errs, fmt.Sprintf("%s: served envelope digest %s, direct lab.Run %q", ids[i], got, b.digests[ids[i]]))
		}
	})
	if len(errs) > 0 {
		b.Close()
		return nil, nil, fmt.Errorf("served warm pass: %v", errs)
	}
	setup := time.Since(start)
	// One collection after set-up, outside every timing, drops the warm
	// pass's machines so that the live heap is a baseline for the job
	// table's growth. The measured passes never collect on purpose.
	runtime.GC()
	b.liveAtSetup = readMetric("/gc/heap/live:bytes")
	return b, []time.Duration{setup}, nil
}

// wrap counts what every job's runner returns, cache hits included.
func (b *servedBench) wrap(r exp.Runner) exp.Runner {
	return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		res, err := r(ctx, bench, opts, cfg)
		if err == nil {
			b.requests.Add(1)
			b.cycles.Add(res.Cycles)
			b.committed.Add(res.Snapshot.Value("machine.committed"))
		}
		return res, err
	}
}

// each runs fn(client, i) for every i in [0, n) in order of i: every
// client is a closed loop that takes the next i once its previous job
// has finished.
func (b *servedBench) each(n int, fn func(c, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// job submits one quick-scale experiment, follows its event stream to the
// end and fetches its envelope.
func (b *servedBench) job(ctx context.Context, tr *Tracer, c int, id string) (env []byte, err error) {
	cl := b.clients[c]
	var st serve.JobStatus
	tr.Do(ctx, "serve.submit", func(ctx context.Context) {
		st, err = cl.Submit(ctx, serve.JobRequest{Experiment: id, Scale: "quick", Parallelism: 1})
	})
	if err != nil {
		return nil, err
	}
	tr.Do(ctx, "serve.wait", func(ctx context.Context) {
		err = cl.Events(ctx, st.ID, func(ev serve.Event) error {
			if ev.Type == "state" && (ev.State == serve.StateFailed || ev.State == serve.StateCanceled) {
				return errors.New(ev.State + ": " + ev.Error)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	tr.Do(ctx, "serve.result", func(ctx context.Context) { env, err = cl.Result(ctx, st.ID) })
	return env, err
}

func (b *servedBench) jobCounters() (completed, rejected int64) {
	snap := b.srv.StatsRegistry().Snapshot()
	return snap.Value("serve.jobs.completed"), snap.Value("serve.jobs.rejected")
}

func (b *servedBench) Pass(ctx context.Context, tr *Tracer) *pass {
	p := newPass()
	start := time.Now()
	req0, cyc0, com0 := b.requests.Load(), b.cycles.Load(), b.committed.Load()
	done0, rej0 := b.jobCounters()
	st0 := b.cache.Stats()
	lat := make([]float64, len(b.mix))
	errs := make([]error, len(b.mix))
	p.attempted = len(b.mix)
	b.each(len(b.mix), func(c, i int) {
		id := b.mix[i]
		var env []byte
		d := tr.Do(ctx, "serve.job", func(ctx context.Context) { env, errs[i] = b.job(ctx, tr, c, id) })
		lat[i] = ms(d)
		if errs[i] == nil && bytesDigest(env) != b.digests[id] {
			errs[i] = fmt.Errorf("served envelope digest %s, direct lab.Run %q", bytesDigest(env), b.digests[id])
		}
	})
	p.simTime = time.Since(start)
	for i, err := range errs {
		if err != nil {
			p.fail("job %d (%s): %v", i, b.mix[i], err)
			continue
		}
		p.ops = append(p.ops, lat[i])
	}
	p.cycles = b.cycles.Load() - cyc0
	p.insts = b.committed.Load() - com0
	done1, rej1 := b.jobCounters()
	st1 := b.cache.Stats()
	p.counts["exp.sims"] = b.requests.Load() - req0
	p.counts["serve.jobs_completed"] = done1 - done0
	p.counts["serve.jobs_rejected"] = rej1 - rej0
	p.counts["results.cache_hits"] = int64(st1.Hits - st0.Hits)
	p.counts["results.cache_misses"] = int64(st1.Misses - st0.Misses)
	if b.passes++; b.passes > servedRSSFrom && b.passes <= servedRSSPasses {
		p.sampleRSS()
	}
	b.jobs += done1 - done0
	// The live heap is as of the last collection, so the figure lags by
	// at most one collection cycle's jobs.
	if b.jobs > 0 {
		grown := float64(readMetric("/gc/heap/live:bytes")) - float64(b.liveAtSetup)
		p.layer["serve.heap_kb_per_job"] = grown / 1024 / float64(b.jobs)
	}
	return p
}

// Close shuts the server down and waits for its goroutines to end.
func (b *servedBench) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // the error only reports the timeout, which Close below handles
	b.srv.Close()
	<-b.served
	for _, c := range b.clients {
		c.HTTP.CloseIdleConnections()
	}
}
