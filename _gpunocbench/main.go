// Command gpunocbench is the gpunoc benchmark. It runs one workload against
// the simulator's packages from a single process, checks the outputs, and
// prints every metric by name with its unit.
//
//	gpunocbench -workload volta-engines -seed 1 -seconds 50 -trace 0
//
// An untraced run (-trace 0) times the workload and reports the end-to-end
// metrics. A traced run (-trace 1) first runs one untraced pass, then one
// pass with in-memory spans and a CPU profile, then drives the tick layers
// directly; it reports the per-layer metrics. Simulated counts are reported
// on both kinds of run and repeat exactly at a fixed seed.
//
// The last line of standard output is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics". A failed output check makes
// the command exit with status 1 after printing it. Result files, spans and
// profiles are written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name string
	unit string
}

// endToEnd lists the metrics of an untraced run; every workload reports all
// of them and none is ever zero.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// workload is one bit per workload, for the per-layer metrics that apply to
// it.
type workload uint8

const (
	suiteW workload = 1 << iota
	engW
	allW = suiteW | engW
)

// layerSpec names one per-layer metric, its unit and the workloads that
// measure it.
type layerSpec struct {
	metricSpec
	in workload
}

// perLayer lists the metrics of a traced run. A metric reads 0 on the
// workloads that do not measure it.
var perLayer = []layerSpec{
	{metricSpec{"cycle_ns_p50", "ns"}, allW},
	{metricSpec{"cycle_ns_p99", "ns"}, allW},
	{metricSpec{"saturated.wall_s", "s"}, engW},
	{metricSpec{"channel.wall_s", "s"}, engW},
	{metricSpec{"mesh.wall_s", "s"}, engW},
	{metricSpec{"checkpoint_ms_p50", "ms"}, engW},
	{metricSpec{"restore_ms", "ms"}, engW},
	{metricSpec{"cached_job_ms_p50", "ms"}, suiteW},
	{metricSpec{"cached_job_ms_p99", "ms"}, suiteW},
	{metricSpec{"fail_frac", "ratio"}, allW},
	{metricSpec{"engine.workers", "count"}, allW},
	{metricSpec{"engine.new_ms", "ms"}, allW},
	{metricSpec{"engine.run_ns_per_cycle", "ns"}, allW},
	{metricSpec{"sm.packets_injected", "count"}, engW},
	{metricSpec{"sm.ops_completed", "count"}, engW},
	{metricSpec{"warp.coalesce_ns", "ns"}, allW},
	{metricSpec{"warp.coalesce_allocs", "count"}, allW},
	{metricSpec{"noc.flits", "count"}, engW},
	{metricSpec{"noc.queue_wait_per_packet", "cycles"}, engW},
	{metricSpec{"link.tick_ns", "ns"}, allW},
	{metricSpec{"link.tick_allocs", "count"}, allW},
	{metricSpec{"mem.l2_hit_ratio", "ratio"}, engW},
	{metricSpec{"cache.access_ns", "ns"}, allW},
	{metricSpec{"dram.tick_ns", "ns"}, allW},
	{metricSpec{"dram.row_hit_ratio", "ratio"}, allW},
	{metricSpec{"snap.encode_ms", "ms"}, engW},
	{metricSpec{"snap.decode_ms", "ms"}, engW},
	{metricSpec{"snap.blob_mb", "MB"}, engW},
	{metricSpec{"probe.metrics", "count"}, engW},
	{metricSpec{"probe.snapshot_us", "us"}, engW},
	{metricSpec{"telemetry.step_us", "us"}, engW},
	{metricSpec{"telemetry.windows", "count"}, engW},
	{metricSpec{"telemetry.detector_events", "count"}, engW},
	{metricSpec{"core.calibrate_ms", "ms"}, engW},
	{metricSpec{"core.symbols_sent", "count"}, engW},
	{metricSpec{"core.symbol_errors", "count"}, engW},
	{metricSpec{"core.sim_bps", "bit/s"}, engW},
	{metricSpec{"mesh.nvlink_flits", "count"}, engW},
	{metricSpec{"mesh.nvlink_queue_wait_per_packet", "cycles"}, engW},
	{metricSpec{"mesh.run_ns_per_cycle", "ns"}, engW},
	{metricSpec{"experiments.job_cycles", "count"}, suiteW},
	{metricSpec{"experiments.cache_get_us", "us"}, suiteW},
	{metricSpec{"experiments.cache_hit_ratio", "ratio"}, suiteW},
	{metricSpec{"server.submit_us", "us"}, suiteW},
	{metricSpec{"server.poll_us", "us"}, suiteW},
	{metricSpec{"server.polls_per_cold_job", "count"}, suiteW},
	{metricSpec{"server.non2xx", "count"}, suiteW},
	{metricSpec{"trace.overhead_frac", "ratio"}, allW},
}

// run is the state of one benchmark invocation, shared by the workloads.
type run struct {
	dir     string // where result files and scratch directories go
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer // nil outside the traced pass

	// e2e and layer collect metric values by name; counts collects the
	// simulated counts, which must repeat exactly at a fixed seed.
	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]uint64

	// attempted counts operations and output checks; failed counts those
	// that failed, and wrong the output checks among them. mu guards the
	// three and failures.
	mu                       sync.Mutex
	attempted, failed, wrong int
	failures                 []string

	// workers is the engine worker count each kind of engine the workload
	// builds resolves to.
	workers map[string]int
	// passWalls holds the wall time of each timed pass, in seconds.
	passWalls []float64
}

// check counts one output check, recording it as failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.wrong++
		r.failures = append(r.failures, "wrong output: "+fmt.Sprintf(format, args...))
	}
}

// op counts one operation of the workload, recording it as failed unless
// ok, without counting a wrong output: a job the server reports as failed,
// or a paper-shape check that does not hold at the run's seed.
func (r *run) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, "failed operation: "+fmt.Sprintf(format, args...))
	}
}

// fail counts an output the workload could not produce because a call
// returned err.
func (r *run) fail(what string, err error) {
	r.check(false, "%s: %v", what, err)
}

// workloads maps each workload name to its bit and the function that runs
// it: the timed passes (untraced run) or one untraced and one traced pass
// (traced run), filling the run's metrics.
var workloads = map[string]struct {
	bit   workload
	drive func(r *run) error
}{
	"suite-server":  {suiteW, suiteServer},
	"volta-engines": {engW, voltaEngines},
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 50, "measured time per run in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for result files, spans and profiles")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "gpunocbench: want -workload one of %s, -seconds >= 1, -trace 0 or 1\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gpunocbench: %v\n", err)
		os.Exit(1)
	}

	r := &run{
		dir:     *out,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		counts:  map[string]uint64{},
		workers: map[string]int{},
	}
	prefix := filepath.Join(*out, fmt.Sprintf("%s-seed%d", *workload, *seed))
	if r.traced {
		r.tr = newTracer(prefix)
	}
	err := wl.drive(r)
	if err == nil && r.traced {
		err = drives(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunocbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.traced {
		if err := r.tr.write(); err != nil {
			fmt.Fprintf(os.Stderr, "gpunocbench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	r.e2e["max_rss_mb"] = maxRSSMB()
	r.layer["fail_frac"] = float64(r.failed) / float64(max(r.attempted, 1))

	specs, values := endToEnd, r.e2e
	if r.traced {
		specs, values = nil, r.layer
		for _, s := range perLayer {
			specs = append(specs, s.metricSpec)
			if s.in&wl.bit == 0 {
				r.layer[s.name] = 0
			}
		}
	}
	metrics := map[string]metric{}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "gpunocbench: %s did not report %s\n", *workload, s.name)
			os.Exit(1)
		}
		metrics[s.name] = metric{Value: v, Unit: s.unit}
	}

	env := environment(*workload, *seed, r.workers)
	res := result{
		Correct:   r.wrong == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	}
	if err := writeResultFile(fmt.Sprintf("%s-trace%d.json", prefix, *trace), env, r, res); err != nil {
		fmt.Fprintf(os.Stderr, "gpunocbench: %v\n", err)
		os.Exit(1)
	}
	printHuman(*workload, env, r, specs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunocbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printHuman prints the environment, every metric the run measured (the
// reported ones first), the simulated counts and any failed checks, one per
// line, ahead of the result line.
func printHuman(workload string, env map[string]any, r *run, reported []metricSpec) {
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	units := map[string]string{}
	for _, s := range endToEnd {
		units[s.name] = s.unit
	}
	for _, s := range perLayer {
		units[s.name] = s.unit
	}
	seen := map[string]bool{}
	for _, s := range reported {
		v := r.e2e[s.name]
		if r.traced {
			v = r.layer[s.name]
		}
		fmt.Printf("metric %s %s %.6g %s\n", workload, s.name, v, s.unit)
		seen[s.name] = true
	}
	for _, m := range []map[string]float64{r.e2e, r.layer} {
		for _, name := range sortedKeys(m) {
			if !seen[name] {
				fmt.Printf("metric %s %s %.6g %s (not reported)\n", workload, name, m[name], units[name])
				seen[name] = true
			}
		}
	}
	for _, name := range sortedKeys(r.counts) {
		fmt.Printf("count %s %s %d\n", workload, name, r.counts[name])
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED %s: %s\n", workload, f)
	}
}

// writeResultFile saves the environment, every measured metric, the
// simulated counts and the failed checks of one run as JSON.
func writeResultFile(path string, env map[string]any, r *run, res result) error {
	doc := map[string]any{
		"env":         env,
		"result":      res,
		"end_to_end":  r.e2e,
		"per_layer":   r.layer,
		"counts":      r.counts,
		"pass_wall_s": r.passWalls,
		"failures":    r.failures,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
