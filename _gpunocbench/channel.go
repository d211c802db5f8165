package main

import (
	"math/rand"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/engine"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// The observed-channel scenario of the volta-engines workload: calibrate the
// TPC channel, then send seed-generated bits over a few TPCs of a default
// Volta with a probe registry and a quarter-slot telemetry sampler feeding
// the covert-channel detector attached, as the detect-latency experiment
// does. The engine runs in window-aligned RunFor chunks. Probes clamp the
// engine to one worker. The device keeps Volta's default seed, so its clock
// skews, and with them the initial synchronization wait, are the same for
// every run; the run's seed shuffles the payload and drives the programs'
// jitter.
const (
	chanTPCs       = 4  // TPCs 0..chanTPCs-1 carry the payload
	chanBits       = 64 // seed-shuffled payload bits
	chanIterations = 2  // memory ops per symbol
	chanPreamble   = 16 // alternating symbols ahead of each TPC's data
	chanCalSlots   = 32 // calibration preamble slots
	chanBudget     = 20_000_000
	chanProbeReps  = 20 // probe snapshots timed per traced pass
)

// chanPass is what one run of the scenario measured.
type chanPass struct {
	enginePass
	calibrate time.Duration
	windows   []telemetry.Window
	events    []telemetry.Event
}

// channelPayload is the seed-shuffled payload: as many ones as zeros, so
// every seed keeps the sender equally busy.
func channelPayload(seed int64) []core.Symbol {
	rng := rand.New(rand.NewSource(seed))
	payload := make([]core.Symbol, chanBits)
	for k, j := range rng.Perm(chanBits) {
		payload[j] = core.Symbol(k % 2)
	}
	return payload
}

// channelPass runs one calibration and transmission. On the traced pass the
// sampler is not attached to the engine: the benchmark steps it between the
// window-aligned RunFor calls, so its cost is timed on its own, and the
// windows and events it produces must equal the attached sampler's.
func channelPass(r *run, cfg config.Config, payload []core.Symbol, i int) (chanPass, error) {
	var p chanPass
	id := runID(i)
	top := r.tr.begin("pass", 0, id)
	defer r.tr.end(top)
	meter := &config.CycleMeter{}

	start := time.Now()
	cal := cfg
	cal.Probes = probe.NewRegistry()
	cal.Meter = meter
	params := core.Params{
		Kind:          core.TPCChannel,
		Iterations:    chanIterations,
		SyncPeriod:    16,
		BitsPerSymbol: 1,
		Seed:          r.seed,
	}
	sp := r.tr.begin("core.Calibrate", top, id)
	params, err := core.Calibrate(&cal, params, chanCalSlots)
	r.tr.end(sp)
	if err != nil {
		r.fail("calibrate", err)
		return p, nil
	}
	p.calibrate = time.Since(start)
	params.PreambleSymbols = chanPreamble

	// Set-up: the observed configuration, the transmission and the engine.
	t0 := time.Now()
	window := max(params.SlotCycles/4, 1)
	c := cfg
	c.Meter = meter
	c.Probes = probe.NewRegistry()
	rec := &telemetry.Recorder{}
	det := telemetry.NewDetector(telemetry.DetectorConfig{SlotCycles: params.SlotCycles, WindowCycles: window})
	sampler := telemetry.NewSampler(window, rec, det)
	if r.tr == nil {
		c.Telemetry = sampler
	}
	tpcs := make([]int, chanTPCs)
	for t := range tpcs {
		tpcs[t] = t
	}
	sp = r.tr.begin("core.NewTPCTransmission", top, id)
	tx, err := core.NewTPCTransmission(&c, payload, tpcs, params)
	r.tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = r.tr.begin("engine.New", top, id)
	tn := time.Now()
	g, err := engine.New(c)
	p.newDur = time.Since(tn)
	r.tr.end(sp)
	if err != nil {
		return p, err
	}
	defer g.Close()
	sp = r.tr.begin("core.Launch", top, id)
	err = tx.Launch(g, 0)
	r.tr.end(sp)
	if err != nil {
		return p, err
	}
	p.setup = time.Since(t0)
	r.workers["channel"] = g.Workers()

	var steps []time.Duration
	for kernelsRunning(g) && g.Now() < chanBudget {
		sp := r.tr.begin("engine.RunFor", top, id)
		p.runChunk(window, func() { g.RunFor(window) })
		r.tr.end(sp)
		if r.tr != nil {
			sp := r.tr.begin("telemetry.Step", top, id)
			t := time.Now()
			sampler.Step(window, c.Probes)
			steps = append(steps, time.Since(t))
			r.tr.end(sp)
		}
	}
	r.check(!kernelsRunning(g), "pass %d: channel kernels unfinished after %d cycles", i, g.Now())
	sp = r.tr.begin("core.Finish", top, id)
	res, err := tx.Finish(g)
	r.tr.end(sp)
	p.wall = time.Since(start) - p.setup
	p.cycles = meter.Load()
	if err != nil {
		r.fail("transmission", err)
		return p, nil
	}
	p.windows, p.events = rec.Windows(), det.Events()
	r.check(len(p.events) > 0, "pass %d: the detector did not fire", i)

	counts := map[string]uint64{}
	gpuCounts(g, "", counts)
	counts["core.symbols_sent"] = uint64(res.SymbolsSent)
	counts["core.symbol_errors"] = uint64(res.SymbolErrors)
	counts["core.cycles"] = res.Cycles
	counts["calibrate+transmit.cycles"] = p.cycles
	counts["telemetry.windows"] = uint64(len(p.windows))
	counts["telemetry.detector_events"] = uint64(len(p.events))
	p.counts = counts

	if r.tr != nil {
		r.layer["core.symbols_sent"] = float64(res.SymbolsSent)
		r.layer["core.symbol_errors"] = float64(res.SymbolErrors)
		r.layer["core.sim_bps"] = res.BitsPerSecond
		r.layer["telemetry.windows"] = float64(len(p.windows))
		r.layer["telemetry.detector_events"] = float64(len(p.events))
		r.layer["telemetry.step_us"] = median(durations(steps, us))
		var snaps []time.Duration
		var snap probe.Snapshot
		for k := 0; k < chanProbeReps; k++ {
			sp := r.tr.begin("probe.Snapshot", top, id)
			t := time.Now()
			snap = c.Probes.Snapshot(g.Now())
			snaps = append(snaps, time.Since(t))
			r.tr.end(sp)
		}
		r.layer["probe.snapshot_us"] = median(durations(snaps, us))
		r.layer["probe.metrics"] = float64(len(snap.Counters) + len(snap.Gauges) + len(snap.Hists) + len(snap.Occupancy))
	}
	return p, nil
}
