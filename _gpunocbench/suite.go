package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/experiments"
	"gpunoc/internal/server"
)

// The suite-server workload: the simulation server on loopback HTTP with a
// fresh cache directory and two workers. Two clients, each on its own
// connection and each waiting for its reply (a closed loop), submit every
// registered experiment on the small configuration at quick scale and poll
// each job to done: the cold pass. Warm passes then resubmit every key that
// finished, in an order shuffled by the run's seed, until the cached
// latencies have suiteWarmSamples samples. A run repeats this on a fresh
// server and cache.
//
// The experiments run at suiteSeed whatever the run's seed. At some suite
// seeds an experiment fails on small/quick (see README.md), and the suite's
// simulated cycles move by a quarter between seeds; a fixed suite seed keeps
// every operation passing and the cold pass the same work in every run.
//
// The server's small configuration pins the engine to one worker, as
// ccbench does when it runs experiments side by side. At the default, every
// job's engine resolves to GOMAXPROCS workers: two jobs then run four busy
// threads on a 2-core host, the cold pass measures how the scheduler packs
// them, and every such engine stays in memory (see README.md), so a cold
// pass could not be repeated in one process.
const (
	suiteConfig        = "small"
	suiteSeed          = 5 // the suite seed docs/EXPERIMENTS.md uses
	suiteClients       = 2
	suiteWorkers       = 2
	suiteEngineWorkers = 1
	suiteSetups        = 17 // server set-ups timed per pass; the last one serves
	suiteWarmSamples   = 400
	suitePollEvery     = 5 * time.Millisecond
	suiteEngineNews    = 5
	suiteNominal       = 16 * time.Second // one pass on a 2-core host
)

// suiteConfigs is the server's configuration table: small, with the engine
// pinned to suiteEngineWorkers.
func suiteConfigs() map[string]func() config.Config {
	return map[string]func() config.Config{suiteConfig: func() config.Config {
		c := config.Small()
		c.EngineWorkers = suiteEngineWorkers
		return c
	}}
}

// suiteServerState is one running server and its clients.
type suiteServerState struct {
	dir     string
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
}

// startServer builds a server on a fresh cache directory under dir, serves
// it on a loopback port and waits until its health check answers.
func startServer(dir string) (*suiteServerState, error) {
	cacheDir, err := os.MkdirTemp(dir, "suite-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Cache: &experiments.Cache{Dir: cacheDir}, Workers: suiteWorkers, Configs: suiteConfigs()})
	if err != nil {
		os.RemoveAll(cacheDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(cacheDir)
		return nil, err
	}
	st := &suiteServerState{
		dir:    cacheDir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	for c := 0; c < suiteClients; c++ {
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	}
	resp, err := st.clients[0].Get(st.base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// stop shuts the HTTP server down, waits for the worker pool and removes
// the cache directory.
func (st *suiteServerState) stop() {
	// The server holds no request open once the clients are done, so
	// Shutdown returns at once; its error only repeats Serve's.
	_ = st.hs.Shutdown(context.Background())
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "gpunocbench: serving: %v\n", err)
	}
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	st.srv.Close()
	os.RemoveAll(st.dir)
}

// call sends one request and decodes a JobStatus reply, returning the
// status code and the round-trip time.
func call(c *http.Client, method, url string, body []byte) (server.JobStatus, int, time.Duration, error) {
	var st server.JobStatus
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return st, 0, 0, err
	}
	t := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return st, 0, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	d := time.Since(t)
	return st, resp.StatusCode, d, err
}

// coldJob is what the cold pass saw of one experiment.
type coldJob struct {
	id      string
	body    []byte
	key     string
	state   string
	errMsg  string
	report  string
	cycles  uint64
	latency time.Duration
	submit  time.Duration
	polls   []time.Duration
	// perCycle holds the host ns per simulated cycle between consecutive
	// replies whose live cycle count advanced, and advanced the cycles
	// each advanced by.
	perCycle, advanced []float64
	// warmBad describes the first warm resubmission that did not repeat
	// the cold report, if any.
	warmBad string
}

// suiteTally collects the per-request observations of both clients.
type suiteTally struct {
	mu     sync.Mutex
	non2xx int
	// warm holds the latencies of the warm resubmissions; warmSubmits and
	// warmCached count them and those the server answered from its cache.
	warm                    []time.Duration
	warmSubmits, warmCached int
}

func (t *suiteTally) add(code int) {
	if code/100 != 2 {
		t.mu.Lock()
		t.non2xx++
		t.mu.Unlock()
	}
}

type suitePass struct {
	setups   []time.Duration
	makespan time.Duration
	jobs     []*coldJob
	tally    *suiteTally
	cacheGet []time.Duration
}

func suiteServer(r *run) error {
	var ps []suitePass
	err := r.repeat(suiteNominal, func(i int) (time.Duration, error) {
		p, err := suiteRun(r, i)
		ps = append(ps, p)
		return p.makespan, err
	})
	if err != nil {
		return err
	}

	// The intervals between a job's replies play the part of the RunFor
	// chunks of volta-engines. Each is weighted by the cycles it
	// simulated, so the percentiles are over simulated cycles.
	var perCycle, weights, makespans, runNS []float64
	var setups, warm, cacheGet, submits, polls []time.Duration
	var cycles uint64
	var jobs, warmSubmits, warmCached, non2xx int
	for _, p := range ps {
		var jobTime time.Duration
		cycles = 0
		for _, j := range p.jobs {
			cycles += j.cycles
			jobTime += j.latency
			submits = append(submits, j.submit)
			polls = append(polls, j.polls...)
			perCycle = append(perCycle, j.perCycle...)
			weights = append(weights, j.advanced...)
		}
		jobs += len(p.jobs)
		makespans = append(makespans, p.makespan.Seconds())
		runNS = append(runNS, ns(jobTime)/float64(cycles))
		setups = append(setups, p.setups...)
		cacheGet = append(cacheGet, p.cacheGet...)
		tl := p.tally
		warm = append(warm, tl.warm...)
		warmSubmits += tl.warmSubmits
		warmCached += tl.warmCached
		non2xx += tl.non2xx
	}
	r.e2e["setup_s"] = median(durations(setups, time.Duration.Seconds))
	// The median, not the fastest pass as on volta-engines: how the two
	// workers' jobs interleave moves a makespan either way, and in five
	// runs one pass ran 1.5 s (10%) under its run's other two.
	r.e2e["wall_s"] = median(makespans)
	r.e2e["sim_cycles_per_s"] = float64(cycles) / median(makespans)
	r.layer["cycle_ns_p50"] = weightedQuantile(perCycle, weights, 0.50)
	r.layer["cycle_ns_p99"] = weightedQuantile(perCycle, weights, 0.99)
	r.layer["cached_job_ms_p50"] = quantile(durations(warm, ms), 0.50)
	r.layer["cached_job_ms_p99"] = quantile(durations(warm, ms), 0.99)
	r.layer["experiments.job_cycles"] = float64(cycles)
	r.layer["experiments.cache_get_us"] = median(durations(cacheGet, us))
	r.layer["experiments.cache_hit_ratio"] = float64(warmCached) / float64(max(warmSubmits, 1))
	r.layer["server.submit_us"] = median(durations(submits, us))
	r.layer["server.poll_us"] = median(durations(polls, us))
	r.layer["server.polls_per_cold_job"] = float64(len(polls)) / float64(jobs)
	r.layer["server.non2xx"] = float64(non2xx)
	r.layer["engine.run_ns_per_cycle"] = median(runNS)

	// Resolve the worker count of the engines the server's jobs build.
	var news []time.Duration
	for k := 0; k < suiteEngineNews; k++ {
		t := time.Now()
		g, err := engine.New(suiteConfigs()[suiteConfig]())
		news = append(news, time.Since(t))
		if err != nil {
			return err
		}
		r.workers["server-job"] = g.Workers()
		g.Close()
	}
	r.layer["engine.new_ms"] = median(durations(news, ms))
	r.layer["engine.workers"] = float64(r.workers["server-job"])
	return nil
}

// suiteRun makes pass i: it sets the server up suiteSetups times, keeps the
// last one, and runs the cold pass, the output checks and the warm passes on
// it.
func suiteRun(r *run, i int) (suitePass, error) {
	const seed = suiteSeed
	p := suitePass{tally: &suiteTally{}}
	id := runID(i)
	top := r.tr.begin("pass", 0, id)
	defer r.tr.end(top)

	var st *suiteServerState
	for k := 0; k < suiteSetups; k++ {
		if st != nil {
			st.stop()
		}
		sp := r.tr.begin("server.Start", top, id)
		t := time.Now()
		var err error
		st, err = startServer(r.dir)
		p.setups = append(p.setups, time.Since(t))
		r.tr.end(sp)
		if err != nil {
			return p, err
		}
	}
	defer st.stop()

	exps := experiments.All()
	for _, e := range exps {
		body, err := json.Marshal(server.JobRequest{Config: suiteConfig, Seed: seed, Experiment: e.ID, Scale: "quick"})
		if err != nil {
			return p, err
		}
		p.jobs = append(p.jobs, &coldJob{id: e.ID, body: body})
	}

	// Cold pass: the clients take the experiments in registry order.
	start := time.Now()
	next := make(chan *coldJob)
	var wg sync.WaitGroup
	for c := 0; c < suiteClients; c++ {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range next {
				coldSubmit(r, st, c, j, p.tally, top)
			}
		}(st.clients[c])
	}
	for _, j := range p.jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	p.makespan = time.Since(start)

	// Output checks: every job finished, its key is the one the harness
	// computes, and the experiment's Check passes on the cached figure.
	// A job the server failed, and a paper-shape Check that does not hold,
	// are model outcomes, not wrong answers from the server: they count as
	// failed operations.
	cfg := suiteConfigs()[suiteConfig]()
	opt := experiments.Options{Seed: seed, Scale: experiments.Quick}
	cache := &experiments.Cache{Dir: st.dir}
	counts := map[string]uint64{}
	var done []*coldJob
	for k, j := range p.jobs {
		e := exps[k]
		r.op(j.state == "done", "%s: job ended %q: %s", j.id, j.state, j.errMsg)
		if j.state != "done" {
			continue
		}
		key := experiments.NewCacheKey(&cfg, suiteConfig, opt, e.ID)
		r.check(key.ID() == j.key, "%s: server key %s, harness key %s", j.id, j.key, key.ID())
		sp := r.tr.begin("experiments.Cache.Get", top, "job:"+j.id)
		t := time.Now()
		ent, ok := cache.Get(key)
		p.cacheGet = append(p.cacheGet, time.Since(t))
		r.tr.end(sp)
		r.check(ok, "%s: finished job is not in the cache", j.id)
		if !ok {
			continue
		}
		if e.Check != nil {
			cc := cfg
			cc.Seed = experiments.DeriveSeed(seed, e.ID)
			err := e.Check(&cc, ent.Figure)
			r.op(err == nil, "%s: check on the cached figure: %v", j.id, err)
		}
		done = append(done, j)
		h := fnv.New64a()
		io.WriteString(h, j.report)
		counts["job."+j.id+".cycles"] = j.cycles
		counts["job."+j.id+".report_fnv64"] = h.Sum64()
	}
	counts["jobs.done"] = uint64(len(done))
	counts["jobs.failed"] = uint64(len(p.jobs) - len(done))
	r.sameCounts(i, counts)
	if len(done) == 0 {
		return p, nil
	}

	// Warm passes: resubmit every finished key until there are enough
	// cached samples; each reply must repeat the cold report.
	warmPasses(r, st, done, p.tally, top)
	for _, j := range done {
		r.check(j.warmBad == "", "%s: %s", j.id, j.warmBad)
	}
	return p, nil
}

// warmPasses resubmits every job in done, from both clients and in an order
// the run's seed shuffles anew each round, until the tally holds
// suiteWarmSamples cached latencies.
func warmPasses(r *run, st *suiteServerState, done []*coldJob, tl *suiteTally, parent int) {
	rng := rand.New(rand.NewSource(r.seed))
	var wg sync.WaitGroup
	for w := 0; len(tl.warm) < suiteWarmSamples; w++ {
		rng.Shuffle(len(done), func(a, b int) { done[a], done[b] = done[b], done[a] })
		next := make(chan *coldJob)
		for c := 0; c < suiteClients; c++ {
			wg.Add(1)
			go func(c *http.Client) {
				defer wg.Done()
				for j := range next {
					warmSubmit(r, st, c, j, tl, parent, w)
				}
			}(st.clients[c])
		}
		for _, j := range done {
			next <- j
		}
		close(next)
		wg.Wait()
	}
}

// coldSubmit submits one job and polls it until it leaves the queue.
func coldSubmit(r *run, st *suiteServerState, c *http.Client, j *coldJob, tl *suiteTally, parent int) {
	run := "job:" + j.id
	job := r.tr.begin("job", parent, run)
	defer r.tr.end(job)
	start := time.Now()
	sp := r.tr.begin("server.POST /v1/jobs", job, run)
	js, code, d, err := call(c, http.MethodPost, st.base+"/v1/jobs", j.body)
	r.tr.end(sp)
	tl.add(code)
	j.submit = d
	at, cycles := time.Now(), js.Cycles
	for err == nil && code/100 == 2 && (js.State == "queued" || js.State == "running") {
		time.Sleep(suitePollEvery)
		sp := r.tr.begin("server.GET /v1/jobs/{key}", job, run)
		js, code, d, err = call(c, http.MethodGet, st.base+"/v1/jobs/"+js.Key, nil)
		r.tr.end(sp)
		j.polls = append(j.polls, d)
		tl.add(code)
		now := time.Now()
		if err == nil && js.Cycles > cycles {
			j.perCycle = append(j.perCycle, ns(now.Sub(at))/float64(js.Cycles-cycles))
			j.advanced = append(j.advanced, float64(js.Cycles-cycles))
		}
		at, cycles = now, js.Cycles
	}
	j.latency = time.Since(start)
	switch {
	case err != nil:
		j.state, j.errMsg = "error", err.Error()
	case code/100 != 2:
		j.state, j.errMsg = "error", fmt.Sprintf("HTTP %d", code)
	default:
		j.key, j.state, j.errMsg, j.report, j.cycles = js.Key, js.State, js.Error, js.Report, js.Cycles
	}
}

// warmSubmit resubmits a finished job, which the server must answer from
// its cache with the cold report; the first reply that does not is recorded
// on the job.
func warmSubmit(r *run, st *suiteServerState, c *http.Client, j *coldJob, tl *suiteTally, parent, w int) {
	sp := r.tr.begin("server.POST /v1/jobs (cached)", parent, fmt.Sprintf("warm%d:%s", w, j.id))
	js, code, d, err := call(c, http.MethodPost, st.base+"/v1/jobs", j.body)
	r.tr.end(sp)
	tl.add(code)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.warm = append(tl.warm, d)
	tl.warmSubmits++
	if js.Cached {
		tl.warmCached++
	}
	if j.warmBad == "" && !(err == nil && code == http.StatusOK && js.Cached && js.Report == j.report) {
		j.warmBad = fmt.Sprintf("warm resubmission %d (HTTP %d, cached %v, err %v) does not repeat the cold report", w, code, js.Cached, err)
	}
}
