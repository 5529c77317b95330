package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The simd-mixed job mix. Warm specs are cached during set-up; the
// in-memory LRU holds fewer results than the warm set has cells, so warm
// hits split between memory and disk. Every coldEvery-th job is a cold
// population job with a fresh seed; the sweeps re-submit each cold sweep
// coldEvery-1 times, warm, for the same mix.
const (
	warmSpecs     = 16
	cacheCapacity = 96 // < warmSpecs x 10 warm cells
	coldEvery     = 8
	simdSetupReps = 3
	// simdSegment is the closed loop's segment length in seconds: the
	// span over which the probe's host speed scales the loop's timings.
	simdSegment = 2.0
	// rssJobs is the job count after which simd-mixed reads its peak
	// RSS: the server keeps every finished job, so a read at the end of
	// a timed loop would grow with throughput.
	rssJobs = 1500
)

// warmSpec is warm spec i: two suite proxies x every mechanism (10
// cells) at a window unique to i, so no two warm specs share a cell.
func warmSpec(i int, rng *rand.Rand) serve.JobSpec {
	names := workload.Names()
	perm := rng.Perm(len(names))
	modes := make([]string, 0, len(core.Modes()))
	for _, m := range core.Modes() {
		modes = append(modes, m.String())
	}
	return serve.JobSpec{
		Name:        fmt.Sprintf("warm-%02d", i),
		Workloads:   []string{names[perm[0]], names[perm[1]]},
		Modes:       modes,
		WarmupUops:  2_000,
		MeasureUops: 6_000 + 250*int64(i),
	}
}

// coldSpec is a small population job (4 scenarios x {OoO, PRE}) whose
// scenarios are fresh for the run, so every cell is a miss and a cache
// write.
func coldSpec(rng *rand.Rand) serve.JobSpec {
	return serve.JobSpec{
		Name:        "cold",
		Modes:       []string{"OoO", "PRE"},
		Population:  &serve.PopulationSpec{SpaceName: "default", Count: 4, BaseSeed: fmt.Sprintf("%x", rng.Uint64()|1)},
		WarmupUops:  4_000,
		MeasureUops: 12_000,
	}
}

// mixJob is one job of the closed loop.
type mixJob struct {
	cold bool
	warm int // warm spec index
	spec serve.JobSpec
}

// jobSource hands out the job sequence; job i depends only on the seed
// and i, whichever client asks for it.
type jobSource struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	warms []serve.JobSpec
}

func (s *jobSource) next() mixJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n%coldEvery == 0 {
		return mixJob{cold: true, spec: coldSpec(s.rng)}
	}
	i := s.rng.Intn(len(s.warms))
	return mixJob{warm: i, spec: s.warms[i]}
}

// simdServer is an in-process simd: the result cache, the job server and
// an HTTP listener on loopback, plus a client for it.
type simdServer struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *serve.Client
}

// startServer runs one job worker per client, each simulating on one
// core, so the closed loop's clients never queue behind each other's
// jobs: a warm job's latency is serve and cache work alone, and a cold
// job's is its own simulation.
func startServer(dir string, workers int) (*simdServer, error) {
	c, err := cache.New(cacheCapacity, dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simdServer{
		srv:       serve.New(serve.Config{Cache: c, SimWorkers: 1, JobWorkers: workers}),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = serve.NewClient("http://" + ln.Addr().String())
	s.client.HTTP = &http.Client{Transport: s.transport}
	return s, nil
}

// close stops the listener, waits for it to exit, and stops the job
// workers.
func (s *simdServer) close() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	s.srv.Close()
	return err
}

// jobResult is one job's outcome as the client saw it.
type jobResult struct {
	cold                 bool
	latency              float64 // Submit to Result received, seconds
	submit, wait, result float64 // client call spans, seconds
	exec                 float64 // JobTiming.WallClockSeconds
	uops                 int64   // warmup + committed over the job's cells
	failure              string
}

// runJob submits one job, waits for it and fetches its result. Spans
// go to tr (nil when untraced) under group.
func runJob(ctx context.Context, c *serve.Client, j mixJob, want [][]byte, wantUops []int64, tr *tracer, group int) jobResult {
	r := jobResult{cold: j.cold}
	root := tr.begin("job", group, -1)
	defer tr.end(root)
	t0 := hostNow()
	var st serve.JobStatus
	var err error
	tr.do("serve.submit", group, root, func() { st, err = c.Submit(ctx, j.spec) })
	r.submit = since(t0)
	if err != nil {
		r.failure = "submit: " + err.Error()
		return r
	}
	t1 := hostNow()
	tr.do("serve.wait", group, root, func() { st, err = c.Wait(ctx, st.ID, nil) })
	r.wait = since(t1)
	if err != nil {
		r.failure = "wait: " + err.Error()
		return r
	}
	if st.Meta != nil {
		r.exec = st.Meta.WallClockSeconds
	}
	t2 := hostNow()
	var body []byte
	tr.do("serve.result", group, root, func() { body, err = c.Result(ctx, st.ID) })
	r.result = since(t2)
	r.latency = since(t0)
	switch {
	case err != nil:
		r.failure = "result: " + err.Error()
	case st.State != serve.StateDone:
		r.failure = "state " + st.State
	case j.cold:
		r.uops, err = docUops(body)
		if err != nil {
			r.failure = err.Error()
		}
	case !bytes.Equal(body, want[j.warm]):
		r.failure = fmt.Sprintf("warm result of %s differs from its cold bytes", j.spec.Name)
	default:
		r.uops = wantUops[j.warm]
	}
	return r
}

// docUops checks every cell of a results document against its commit
// window and returns the document's warmup + committed uops.
func docUops(body []byte) (int64, error) {
	var doc exp.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("decoding results: %w", err)
	}
	var uops int64
	for _, c := range doc.Cells {
		mode, err := core.ParseMode(c.Mode)
		if err != nil {
			return 0, err
		}
		if !windowOK(c.Result.Committed, doc.MeasureUops, mode) {
			return 0, fmt.Errorf("cell %s/%s committed %d of a %d-uop window", c.Workload, c.Mode, c.Result.Committed, doc.MeasureUops)
		}
		uops += doc.WarmupUops + c.Result.Committed
	}
	return uops, nil
}

// simdSetup is a started server with its warm set cached.
type simdSetup struct {
	s        *simdServer
	warms    []serve.JobSpec
	want     [][]byte // cold bytes of each warm spec
	wantUops []int64
}

// setupSimd builds a server over a fresh cache directory and runs every
// warm spec once, cold, recording its result bytes. The specs are all
// submitted first, so the job workers prefill in parallel.
func setupSimd(ctx context.Context, dir string, seed int64, workers int) (*simdSetup, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := startServer(dir, workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	su := &simdSetup{s: s}
	ids := make([]string, warmSpecs)
	for i := range ids {
		spec := warmSpec(i, rng)
		st, err := s.client.Submit(ctx, spec)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("prefilling %s: %w", spec.Name, err), s.close())
		}
		su.warms, ids[i] = append(su.warms, spec), st.ID
	}
	for i, id := range ids {
		_, err := s.client.Wait(ctx, id, nil)
		var body []byte
		if err == nil {
			body, err = s.client.Result(ctx, id)
		}
		var uops int64
		if err == nil {
			uops, err = docUops(body)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("prefilling %s: %w", su.warms[i].Name, err), s.close())
		}
		su.want = append(su.want, body)
		su.wantUops = append(su.wantUops, uops)
	}
	return su, nil
}

// loop runs the closed loop: clients clients, each submitting its next
// job only after the previous one finished, until seconds have passed.
// It returns every job's result, the loop's wall seconds and, if the
// loop finished an rssAt-th job, the peak RSS (MB) rss read then.
func (su *simdSetup) loop(ctx context.Context, src *jobSource, clients int, seconds float64, tr *tracer, rssAt int, rss func() (float64, error)) ([]jobResult, float64, float64, error) {
	var mu sync.Mutex
	var results []jobResult
	var peak float64
	var rssErr error
	var wg sync.WaitGroup
	var groups atomic.Int64
	t0 := hostNow()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for since(t0) < seconds {
				j := src.next()
				group := int(groups.Add(1))
				r := runJob(ctx, su.s.client, j, su.want, su.wantUops, tr, group)
				mu.Lock()
				results = append(results, r)
				if len(results) == rssAt {
					peak, rssErr = rss()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, since(t0), peak, rssErr
}

// simdMixed is the simd-mixed workload.
type simdMixed struct{}

// summary holds a loop's end-to-end view.
type summary struct {
	warm, cold   []float64 // latencies, ms
	jobs, failed int
	uops         int64
	secs         float64
	failures     []string
}

func summarize(results []jobResult, secs float64) summary {
	sm := summary{secs: secs, jobs: len(results)}
	for _, r := range results {
		if r.failure != "" {
			sm.failed++
			if len(sm.failures) < 5 {
				sm.failures = append(sm.failures, r.failure)
			}
			continue
		}
		sm.uops += r.uops
		if r.cold {
			sm.cold = append(sm.cold, 1e3*r.latency)
		} else {
			sm.warm = append(sm.warm, 1e3*r.latency)
		}
	}
	return sm
}

// measure is the untraced run: simdSetupReps set-ups, then the closed
// loop in segments of simdSegment seconds. The host-speed probe runs
// throughout, and every timing of a segment (a set-up is its own) is
// reported at the reference host speed the probe measured over it.
func (simdMixed) measure(bc *benchCtx) (outcome, error) {
	hp, err := startHostProbe()
	if err != nil {
		return outcome{}, err
	}
	out, err := simdMeasure(bc, hp)
	return out, errors.Join(err, hp.close())
}

func simdMeasure(bc *benchCtx, hp *hostProbe) (outcome, error) {
	ctx := context.Background()
	clients := bc.workers
	var su *simdSetup
	setups := make([]float64, simdSetupReps)
	for i := range setups {
		if su != nil {
			if err := su.s.close(); err != nil {
				return outcome{}, err
			}
		}
		m0 := hp.mark()
		t0 := hostNow()
		var err error
		su, err = setupSimd(ctx, filepath.Join(bc.workdir, fmt.Sprintf("simd-cache-%d", i)), bc.seed, clients)
		if err != nil {
			return outcome{}, err
		}
		secs := since(t0)
		sp, err := speed(m0, hp.mark())
		if err != nil {
			return outcome{}, errors.Join(err, su.s.close())
		}
		setups[i] = secs * sp
	}
	src := &jobSource{rng: rand.New(rand.NewSource(bc.seed + 1)), warms: su.warms}
	var results []jobResult
	var secs, rss float64
	var speeds []float64
	t0 := hostNow()
	for since(t0) < bc.seconds {
		m0 := hp.mark()
		rs, segSecs, segRSS, err := su.loop(ctx, src, clients, min(simdSegment, bc.seconds-since(t0)), nil, rssJobs-len(results), hp.rssMB)
		var sp float64
		if err == nil {
			sp, err = speed(m0, hp.mark())
		}
		if err != nil {
			return outcome{}, errors.Join(err, su.s.close())
		}
		for i := range rs {
			rs[i].latency *= sp
		}
		results = append(results, rs...)
		secs += segSecs * sp
		speeds = append(speeds, sp)
		if segRSS > 0 {
			rss = segRSS
		}
	}
	if rss == 0 {
		var err error
		if rss, err = hp.rssMB(); err != nil {
			return outcome{}, errors.Join(err, su.s.close())
		}
	}
	if err := su.s.close(); err != nil {
		return outcome{}, err
	}
	sm := summarize(results, secs)
	rep := newReport()
	for _, f := range sm.failures {
		rep.notef("failed job: %s", f)
	}
	rep.notef("workload simd-mixed: %d jobs (%d warm, %d cold, %d failed) in %.3f s at the reference host speed, %d clients + the host-speed probe, cache capacity %d, %d warm specs",
		sm.jobs, len(sm.warm), len(sm.cold), sm.failed, sm.secs, clients, cacheCapacity, warmSpecs)
	rep.notef("host speed per segment, relative to the reference host: %s", fmtSpeeds(speeds))
	rep.notef("warm latency histogram: %s", histogram(sm.warm))
	rep.notef("cold latency histogram: %s", histogram(sm.cold))
	rep.notef("tails: job_warm_p99_ms has %d warm jobs beyond it, job_cold_p90_ms %d cold jobs", beyond(sm.warm, 0.99), beyond(sm.cold, 0.9))
	rep.set("setup_s", stats.Median(setups), len(setups))
	rep.set("sim_uops_per_s", stats.Ratio(float64(sm.uops), sm.secs), sm.jobs-sm.failed)
	rep.set("jobs_per_s", stats.Ratio(float64(sm.jobs-sm.failed), sm.secs), sm.jobs-sm.failed)
	rep.set("job_warm_p50_ms", stats.Median(sm.warm), len(sm.warm))
	rep.set("job_warm_p99_ms", percentile(sm.warm, 0.99), len(sm.warm))
	rep.set("job_cold_p50_ms", stats.Median(sm.cold), len(sm.cold))
	rep.set("job_cold_p90_ms", percentile(sm.cold, 0.9), len(sm.cold))
	rep.set("peak_rss_mb", rss, min(sm.jobs, rssJobs))
	return outcome{rep: rep, attempted: sm.jobs, failed: sm.failed}, nil
}

// traced runs the loop in four equal segments: a warm-up that brings the
// cache's memory/disk split to its steady state, an untraced segment, a
// traced one (spans and a CPU profile), and a second untraced one. The
// untraced segments around the traced one are the denominator of
// trace.overhead_frac; the cache counters come from /v1/stats around the
// traced segment.
func (simdMixed) traced(bc *benchCtx) (outcome, error) {
	ctx := context.Background()
	su, err := setupSimd(ctx, filepath.Join(bc.workdir, "simd-cache-traced"), bc.seed, bc.workers)
	if err != nil {
		return outcome{}, err
	}
	src := &jobSource{rng: rand.New(rand.NewSource(bc.seed + 1)), warms: su.warms}
	segment := bc.seconds / 4
	var warmup, plain, results []jobResult
	var st0, st1 serve.Stats
	var prof *profiler
	var ms0, ms1 runtime.MemStats
	tr := newTracer()
	for _, seg := range []struct {
		into   *[]jobResult
		traced bool
	}{{&warmup, false}, {&plain, false}, {&results, true}, {&plain, false}} {
		var segTr *tracer
		if seg.traced {
			segTr = tr
			if st0, err = su.s.client.Stats(ctx); err != nil {
				return outcome{}, errors.Join(err, su.s.close())
			}
			if prof, err = startProfile(filepath.Join(bc.workdir, "simd-mixed.cpu.pprof")); err != nil {
				return outcome{}, errors.Join(err, su.s.close())
			}
			runtime.ReadMemStats(&ms0)
		}
		rs, _, _, err := su.loop(ctx, src, bc.workers, segment, segTr, 0, nil)
		*seg.into = append(*seg.into, rs...)
		if seg.traced {
			runtime.ReadMemStats(&ms1)
			var serr error
			st1, serr = su.s.client.Stats(ctx)
			err = errors.Join(err, prof.stop(), serr)
		}
		if err != nil {
			return outcome{}, errors.Join(err, su.s.close())
		}
	}
	if err := su.s.close(); err != nil {
		return outcome{}, err
	}

	ws, ps, sm := summarize(warmup, 0), summarize(plain, 0), summarize(results, 0)
	rep := newReport()
	for _, f := range slices.Concat(ws.failures, ps.failures, sm.failures) {
		rep.notef("failed job: %s", f)
	}
	var submit, wait, result, exec, queue []float64
	for _, r := range results {
		if r.failure != "" {
			continue
		}
		submit = append(submit, 1e3*r.submit)
		wait = append(wait, 1e3*r.wait)
		result = append(result, 1e3*r.result)
		exec = append(exec, 1e3*r.exec)
		queue = append(queue, 1e3*(r.wait-r.exec))
	}
	n := len(submit)
	rep.set("serve.submit_ms", stats.Mean(submit), n)
	rep.set("serve.wait_ms", stats.Mean(wait), n)
	rep.set("serve.result_ms", stats.Mean(result), n)
	rep.set("serve.exec_ms", stats.Mean(exec), n)
	rep.set("serve.queue_wait_ms", stats.Mean(queue), n)
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	rep.set("serve.cache.hit_frac", stats.Ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	rep.set("serve.cache.disk_hit_frac", stats.Ratio(float64(st1.Cache.DiskHits-st0.Cache.DiskHits), float64(hits)), int(hits))
	rep.set("serve.cache.disk_writes", float64(st1.Cache.DiskWrites-st0.Cache.DiskWrites), 1)
	if err := setRuntime(rep, prof.path, &ms0, &ms1, sm.uops); err != nil {
		return outcome{}, err
	}
	// The segments draw different warm/cold mixes, so the traced jobs'
	// latency is compared with what the same mix took untraced.
	nw, nc := float64(len(sm.warm)), float64(len(sm.cold))
	traced := nw*stats.Mean(sm.warm) + nc*stats.Mean(sm.cold)
	untraced := nw*stats.Mean(ps.warm) + nc*stats.Mean(ps.cold)
	rep.set("trace.overhead_frac", stats.Ratio(traced, untraced)-1, len(sm.warm)+len(sm.cold))
	rep.notef("workload simd-mixed traced: warm-up %d jobs, untraced %d jobs (%d warm, %d cold), traced %d jobs (%d warm, %d cold), cache hits %d misses %d",
		ws.jobs, ps.jobs, len(ps.warm), len(ps.cold), sm.jobs, len(sm.warm), len(sm.cold), hits, misses)
	rep.notes = append(rep.notes, tr.selfTable()...)
	out := outcome{rep: rep, attempted: ws.jobs + ps.jobs + sm.jobs, failed: ws.failed + ps.failed + sm.failed}
	return out, tr.write(filepath.Join(bc.workdir, "simd-mixed.spans.jsonl"))
}

// histogram renders latencies (ms) in buckets of one event-poll interval
// (25 ms), the server's wait granularity.
func histogram(ms []float64) string {
	var counts [12]int
	for _, v := range ms {
		counts[min(int(v/25), len(counts)-1)]++
	}
	var b strings.Builder
	for i, c := range counts {
		if c > 0 {
			fmt.Fprintf(&b, " [%d,%d)ms:%d", 25*i, 25*(i+1), c)
		}
	}
	return b.String()
}
