package main

import (
	"math/rand"
	"runtime"
	"time"

	"gpunoc/internal/arb"
	"gpunoc/internal/cache"
	"gpunoc/internal/config"
	"gpunoc/internal/dram"
	"gpunoc/internal/link"
	"gpunoc/internal/packet"
	"gpunoc/internal/warp"
)

// Layer drives: the tick layers the workloads reach only through the engine
// are driven here directly through their public constructors, on a traced
// run only, and timed per operation.
const driveOps = 200_000

// sink keeps drive results alive so the compiler cannot drop the calls.
var sink int

// allocsDuring counts heap allocations made by f.
func allocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// drives runs every layer drive on Volta geometry and records ns and
// allocations per operation.
func drives(r *run) error {
	cfg := config.Volta()
	top := r.tr.begin("drives", 0, "drives")
	defer r.tr.end(top)
	rng := rand.New(rand.NewSource(r.seed))

	// warp.Coalesce on the uncoalesced write that every warp of the
	// streaming scenarios issues.
	op := warp.UncoalescedOp(0x1000, true, cfg.L2LineBytes)
	sp := r.tr.begin("warp.Coalesce", top, "drives")
	var d time.Duration
	allocs := allocsDuring(func() {
		t := time.Now()
		for i := 0; i < driveOps; i++ {
			lines, err := warp.Coalesce(op, cfg.SIMTWidth, cfg.L2LineBytes)
			if err != nil {
				panic(err) // the op is valid by construction
			}
			sink += len(lines)
		}
		d = time.Since(t)
	})
	r.tr.end(sp)
	r.layer["warp.coalesce_ns"] = ns(d) / driveOps
	r.layer["warp.coalesce_allocs"] = float64(allocs) / driveOps

	// A saturated two-input round-robin link: both inputs always hold
	// write packets, and delivered packets are recycled into the queues.
	// The time per tick includes the refill.
	a, err := arb.New(config.ArbRR, 2, cfg.NoC.CRRHoldLimit, packet.DataFlits)
	if err != nil {
		return err
	}
	var free []*packet.Packet // delivered, waiting to be queued again
	l, err := link.New("drive", 2, 1, 1, cfg.NoC.TPCLinkLatency, a, func(now uint64, p *packet.Packet) {
		free = append(free, p)
	})
	if err != nil {
		return err
	}
	pool := make([]*packet.Packet, 16)
	for i := range pool {
		pool[i] = &packet.Packet{Kind: packet.WriteReq, Tag: packet.WarpTag{SM: i % 2}}
	}
	refill := func(now uint64) {
		for in := 0; in < 2; in++ {
			for l.QueueLen(in) < 2 && len(pool) > 0 {
				p := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				l.Enqueue(now, in, p)
			}
		}
		pool = append(pool, free...)
		free = free[:0]
	}
	sp = r.tr.begin("link.Tick", top, "drives")
	allocs = allocsDuring(func() {
		t := time.Now()
		for now := uint64(0); now < driveOps; now++ {
			refill(now)
			l.Tick(now)
		}
		d = time.Since(t)
	})
	r.tr.end(sp)
	r.layer["link.tick_ns"] = ns(d) / driveOps
	r.layer["link.tick_allocs"] = float64(allocs) / driveOps
	r.counts["drive.link.flits"] = l.Stats().Flits

	// One L2 slice's cache: seeded accesses over twice its capacity, each
	// miss filled at once so the MSHRs never run out.
	c, err := cache.New(cfg.L2SliceSizeBytes, cfg.L2LineBytes, cfg.L2Ways, cfg.L2MSHRs)
	if err != nil {
		return err
	}
	lines := uint64(2 * cfg.L2SliceSizeBytes / cfg.L2LineBytes)
	addrs := make([]uint64, driveOps)
	writes := make([]bool, driveOps)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(int64(lines))) * uint64(cfg.L2LineBytes)
		writes[i] = rng.Intn(2) == 0
	}
	sp = r.tr.begin("cache.Access", top, "drives")
	t := time.Now()
	for i, addr := range addrs {
		if c.Access(addr, writes[i]) == cache.Miss {
			c.Fill(addr, writes[i])
		}
	}
	d = time.Since(t)
	r.tr.end(sp)
	r.layer["cache.access_ns"] = ns(d) / driveOps
	r.counts["drive.cache.hits"] = c.Stats().Hits

	// One FR-FCFS memory controller kept full: each cycle tops the queue up
	// from seeded requests, half of them next to the previous request's
	// address. The time per tick includes the enqueues.
	mc, err := dram.NewController(cfg.DRAM, cfg.DRAMBanksPME, 2048, cfg.MCQueueDepth)
	if err != nil {
		return err
	}
	done := func(uint64) {}
	reqs := make([]dram.Request, driveOps)
	var prev uint64
	for i := range reqs {
		addr := uint64(rng.Int63n(1<<30)) &^ 31
		if rng.Intn(2) == 0 {
			addr = prev + 32
		}
		prev = addr
		reqs[i] = dram.Request{Addr: addr, Write: rng.Intn(4) == 0, Done: done}
	}
	sp = r.tr.begin("dram.Tick", top, "drives")
	next := 0
	t = time.Now()
	for now := uint64(0); now < driveOps; now++ {
		for mc.Pending() < cfg.MCQueueDepth && next < len(reqs) {
			mc.Enqueue(now, &reqs[next])
			next++
		}
		mc.Tick(now)
	}
	d = time.Since(t)
	r.tr.end(sp)
	st := mc.Stats()
	r.layer["dram.tick_ns"] = ns(d) / driveOps
	r.layer["dram.row_hit_ratio"] = ratio(st.RowHits, st.RowHits+st.RowMisses)
	r.counts["drive.dram.served"] = st.Served
	r.counts["drive.dram.row_hits"] = st.RowHits
	return nil
}
