package main

import (
	"fmt"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/mesh"
	"gpunoc/internal/packet"
	"gpunoc/internal/warp"
)

// The mesh scenario of the volta-engines workload: two default Voltas joined
// by the default full-mesh NVLink fabric. Every SM of each device streams a
// bounded number of uncoalesced writes into a window of the peer's memory,
// so every request and every reply crosses the fabric once, and the mesh
// runs to completion.
const (
	meshDevices = 2
	meshOps     = 10   // uncoalesced writes per warp
	meshWindow  = 8192 // bytes per SM in the peer's memory
	meshChunk   = 200  // cycles per RunFor call
	meshBudget  = 5_000_000
)

// meshFlits is the NVLink flit total the scenario must produce: each
// uncoalesced write becomes one write request per distinct line, and the
// request and its reply each cross one fabric link.
func meshFlits(cfg *config.Config) (uint64, error) {
	lines, err := warp.Coalesce(warp.UncoalescedOp(0, true, cfg.L2LineBytes), cfg.SIMTWidth, cfg.L2LineBytes)
	if err != nil {
		return 0, err
	}
	perOp := uint64(len(lines) * (packet.FlitsFor(packet.WriteReq) + packet.FlitsFor(packet.WriteReply)))
	return uint64(meshDevices*cfg.NumSMs()*meshOps) * perOp, nil
}

// buildMesh builds the mesh, preloads each target window into the owning
// device's L2 and launches one streaming kernel per device.
func buildMesh(r *run, cfg config.Config, parent int, id string) (*mesh.Mesh, time.Duration, error) {
	sp := r.tr.begin("mesh.New", parent, id)
	t := time.Now()
	m, err := mesh.New(cfg, meshDevices)
	newDur := time.Since(t)
	r.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	for d := 0; d < meshDevices; d++ {
		peer := (d + 1) % meshDevices
		base := mesh.DevBase(peer) + 0x200000 + uint64(d)*0x40000
		sp = r.tr.begin("mesh.Preload", parent, id)
		m.Preload(peer, base, meshWindow*uint64(cfg.NumSMs()))
		r.tr.end(sp)
		spec := device.KernelSpec{
			Name:          fmt.Sprintf("cross%d", d),
			Blocks:        cfg.NumSMs(),
			WarpsPerBlock: 1,
			New: func(b, w int) device.Program {
				return &device.Streamer{
					Base:        base + uint64(b)*meshWindow,
					LineBytes:   cfg.L2LineBytes,
					Write:       true,
					Count:       meshOps,
					Uncoalesced: true,
					WrapBytes:   meshWindow,
				}
			},
		}
		sp = r.tr.begin("mesh.Launch", parent, id)
		_, err := m.Launch(d, spec)
		r.tr.end(sp)
		if err != nil {
			m.Close()
			return nil, 0, err
		}
	}
	return m, newDur, nil
}

// meshRunning reports whether any device still runs a kernel.
func meshRunning(m *mesh.Mesh) bool {
	for d := 0; d < m.NumDevices(); d++ {
		if kernelsRunning(m.GPU(d)) {
			return true
		}
	}
	return false
}

func meshRun(r *run, cfg config.Config, i int) (enginePass, error) {
	var p enginePass
	id := runID(i)
	top := r.tr.begin("pass", 0, id)
	defer r.tr.end(top)

	t0 := time.Now()
	m, newDur, err := buildMesh(r, cfg, top, id)
	if err != nil {
		return p, err
	}
	defer m.Close()
	p.setup, p.newDur = time.Since(t0), newDur
	r.workers["mesh"] = m.GPU(0).Workers()

	start := time.Now()
	for meshRunning(m) && m.Now() < meshBudget {
		sp := r.tr.begin("mesh.RunFor", top, id)
		p.runChunk(meshChunk, func() { m.RunFor(meshChunk) })
		r.tr.end(sp)
	}
	p.wall = time.Since(start)
	p.cycles = m.Now()
	r.check(!meshRunning(m), "pass %d: kernels unfinished after %d cycles", i, m.Now())

	counts := map[string]uint64{}
	for d := 0; d < meshDevices; d++ {
		gpuCounts(m.GPU(d), fmt.Sprintf("gpu%d.", d), counts)
	}
	var nv linkTotals
	for _, l := range m.Links() {
		st := l.Stats()
		counts["nvlink."+l.Name()+".packets"] = st.Packets
		counts["nvlink."+l.Name()+".flits"] = st.Flits
		counts["nvlink."+l.Name()+".queue_wait"] = st.QueueWait
		nv.add(l)
	}
	counts["cycles"] = m.Now()
	p.counts = counts
	want, err := meshFlits(&cfg)
	if err != nil {
		return p, err
	}
	r.check(nv.flits == want, "pass %d: NVLink carried %d flits, want %d", i, nv.flits, want)
	if r.tr != nil {
		r.layer["mesh.nvlink_flits"] = float64(nv.flits)
		r.layer["mesh.nvlink_queue_wait_per_packet"] = nv.waitPerPacket()
	}
	return p, nil
}
