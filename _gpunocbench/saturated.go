package main

import (
	"bytes"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/snap"
)

// The saturated scenario of the volta-engines workload: every SM of a
// default Volta streams a bounded number of uncoalesced writes into a
// preloaded (warm) L2, driven by RunFor in fixed chunks with a periodic
// checkpoint. The last checkpoint is restored into a fresh engine, which
// runs to the same cycle and must end in the same state as the engine that
// was never interrupted.
const (
	satWarps     = 1
	satOps       = 192  // uncoalesced writes per warp
	satSpan      = 8192 // bytes of L2-resident window per warp
	satChunk     = 200  // cycles per RunFor call
	satSnapEvery = 60   // chunks between checkpoints
	satBudget    = 2_000_000
)

// satPass is what one run of the scenario measured.
type satPass struct {
	enginePass
	ckpts   []time.Duration
	restore time.Duration
}

// buildSaturated builds the engine, preloads the L2 and launches the kernel.
func buildSaturated(r *run, cfg config.Config, parent int, id string) (*engine.GPU, time.Duration, error) {
	sp := r.tr.begin("engine.New", parent, id)
	t0 := time.Now()
	g, err := engine.New(cfg)
	newDur := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = r.tr.begin("engine.Preload", parent, id)
	g.Preload(0, uint64(cfg.NumSMs()*satWarps)*satSpan)
	r.tr.end(sp)
	sp = r.tr.begin("engine.Launch", parent, id)
	_, err = g.Launch(streamKernel("saturated", &cfg, satWarps, satOps, satSpan))
	r.tr.end(sp)
	if err != nil {
		g.Close()
		return nil, 0, err
	}
	return g, newDur, nil
}

func saturatedPass(r *run, cfg config.Config, i int) (satPass, error) {
	var p satPass
	id := runID(i)
	top := r.tr.begin("pass", 0, id)
	defer r.tr.end(top)

	t0 := time.Now()
	g, newDur, err := buildSaturated(r, cfg, top, id)
	if err != nil {
		return p, err
	}
	defer g.Close()
	p.setup, p.newDur = time.Since(t0), newDur
	r.workers["saturated"] = g.Workers()

	var last []byte
	start := time.Now()
	for n := 1; kernelsRunning(g) && g.Now() < satBudget; n++ {
		sp := r.tr.begin("engine.RunFor", top, id)
		p.runChunk(satChunk, func() { g.RunFor(satChunk) })
		r.tr.end(sp)
		if n%satSnapEvery == 0 {
			sp := r.tr.begin("engine.Snapshot", top, id)
			t := time.Now()
			blob, err := g.Snapshot()
			p.ckpts = append(p.ckpts, time.Since(t))
			r.tr.end(sp)
			if err != nil {
				return p, err
			}
			last = blob
		}
	}
	p.wall = time.Since(start)
	p.cycles = g.Now()
	r.check(!kernelsRunning(g), "pass %d: kernel unfinished after %d cycles", i, g.Now())
	r.check(last != nil, "pass %d: kernel finished before the first checkpoint", i)

	p.counts = map[string]uint64{}
	noc := gpuCounts(g, "", p.counts)
	if r.tr != nil {
		r.layerFromCounts(noc, p.counts)
	}
	if last == nil {
		return p, nil
	}

	want, err := g.Snapshot()
	if err != nil {
		return p, err
	}
	sp := r.tr.begin("engine.Restore", top, id)
	t := time.Now()
	rg, err := engine.Restore(cfg, last, engine.RestoreOptions{})
	p.restore = time.Since(t)
	r.tr.end(sp)
	if err != nil {
		r.fail("restore", err)
		return p, nil
	}
	defer rg.Close()
	for rg.Now() < g.Now() {
		sp := r.tr.begin("engine.RunFor", top, id)
		rg.RunFor(satChunk)
		r.tr.end(sp)
	}
	got, err := rg.Snapshot()
	if err != nil {
		return p, err
	}
	r.check(bytes.Equal(got, want), "pass %d: restored engine ends in a different state than the uninterrupted one", i)

	if r.tr != nil {
		enc, dec, err := codecTimes(r, cfg, g, last, top, id)
		if err != nil {
			return p, err
		}
		r.layer["snap.encode_ms"] = ms(enc)
		r.layer["snap.decode_ms"] = ms(dec)
		r.layer["snap.blob_mb"] = float64(len(last)) / (1 << 20)
	}
	return p, nil
}

// codecTimes times the snapshot codec apart from engine construction: the
// encode walks g's state into a snap.Encoder and frames it; the decode checks
// the frame and loads blob into an engine built beforehand.
func codecTimes(r *run, cfg config.Config, g *engine.GPU, blob []byte, parent int, id string) (enc, dec time.Duration, err error) {
	sp := r.tr.begin("snap.Encode", parent, id)
	t := time.Now()
	e := snap.NewEncoder()
	if err := g.EncodeState(e); err != nil {
		return 0, 0, err
	}
	e.Finish(g.Config().Hash())
	enc = time.Since(t)
	r.tr.end(sp)

	fresh, err := engine.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer fresh.Close()
	sp = r.tr.begin("snap.Decode", parent, id)
	t = time.Now()
	d, err := snap.NewDecoder(blob, fresh.Config().Hash())
	if err == nil {
		err = fresh.RestoreState(d, engine.RestoreOptions{})
	}
	if err == nil {
		err = d.Close()
	}
	dec = time.Since(t)
	r.tr.end(sp)
	return enc, dec, err
}
