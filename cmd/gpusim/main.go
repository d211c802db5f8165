// Command gpusim runs ad-hoc workloads on the simulated GPU: streaming
// read/write kernels with configurable placement, warp counts, and
// arbitration policy. It is the generic entry point for exploring the
// contention behaviour of the NoC model outside the canned experiments.
//
// Usage:
//
//	gpusim [-config volta|small] [-arb rr|crr|srr|age] [-sms 0,1] \
//	       [-ops 20] [-warps 4] [-read] [-seed N] \
//	       [-trace out.json] [-watch N] [-gpus N] [-topology full|ring|nvswitch] \
//	       [-snapshot-at N -snapshot-file f.snap | -restore f.snap]
//
// -gpus N (N >= 2) builds an N-device NVLink mesh (internal/mesh) instead of
// a single GPU and points the streamers on device 0 at a window owned by
// device 1, so every access crosses the fabric; the report adds one line per
// NVLink link with its packet/flit/queue statistics. -topology selects the
// fabric wiring. Mesh runs do not support -trace, -watch, or checkpoints.
//
// -snapshot-at N -snapshot-file f writes a checkpoint of the complete engine
// state at cycle N and then keeps running to completion, so the run's stdout
// is the uninterrupted reference. -restore f rebuilds the engine from such a
// checkpoint (pass the same -config/-arb/-seed and workload flags: the blob
// is bound to the configuration hash) and runs it to completion; its stdout
// is byte-identical to the snapshotting run's, which is exactly what the
// snapshot-identity CI job diffs. The single-GPU workload is a
// device.MaskedStreamer — a concrete checkpointable program, not a closure —
// so warp progress survives the round trip. Incompatible with -trace (event
// spans cannot be snapshotted).
//
// -trace writes a Chrome trace-event JSON file of the run: one track per
// instrumented NoC link (spans are packets occupying the channel, from
// enqueue to delivery) plus a "kernels" track with one span per kernel.
// Open it at https://ui.perfetto.dev or chrome://tracing; timestamps are
// simulated cycles, not microseconds.
//
// -watch N prints one human-readable line per N-cycle telemetry window to
// stderr — the window's bounds and every NoC link's occupancy rate — while
// the run executes. It is the interactive face of internal/telemetry's
// windowed sampler; like -trace it implies probe instrumentation. Windows
// with no link activity are not printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/mesh"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gpusim: %v\n", err)
	os.Exit(1)
}

// watchPrinter is the -watch Watcher: one stderr line per window that saw
// any link activity, occupancy rates in sorted link order.
type watchPrinter struct{}

func (watchPrinter) ObserveWindow(w telemetry.Window) {
	names := telemetry.SortedOccNames(w)
	if len(names) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "watch [%d,%d)", w.Start, w.End)
	for _, name := range names {
		short := strings.TrimSuffix(strings.TrimPrefix(name, "noc/"), "/occupancy")
		fmt.Fprintf(&b, " %s=%.2f", short, w.Occ[name].Rate)
	}
	fmt.Fprintln(os.Stderr, b.String())
}

func main() {
	cfgName := flag.String("config", "volta", "GPU configuration: volta or small")
	arbName := flag.String("arb", "rr", "NoC arbitration: rr, crr, srr, age")
	smsFlag := flag.String("sms", "0,1", "comma-separated SM ids to activate")
	ops := flag.Int("ops", 20, "streamer memory operations per warp")
	warps := flag.Int("warps", 4, "warps per activated SM")
	read := flag.Bool("read", false, "issue reads instead of writes")
	seed := flag.Int64("seed", 1, "deterministic seed")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-compatible) to this path")
	watch := flag.Uint64("watch", 0, "print one NoC occupancy line per N-cycle telemetry window to stderr (0 = off)")
	gpus := flag.Int("gpus", 0, "build an N-GPU NVLink mesh and stream from device 0 into device 1's memory (0/1 = single GPU)")
	topology := flag.String("topology", "", "NVLink mesh topology: full, ring, or nvswitch (empty = config default)")
	snapAt := flag.Uint64("snapshot-at", 0, "write a checkpoint at this cycle, then keep running (requires -snapshot-file)")
	snapFile := flag.String("snapshot-file", "", "checkpoint output path for -snapshot-at")
	restorePath := flag.String("restore", "", "restore the engine from this checkpoint and run to completion")
	flag.Parse()

	if (*snapAt > 0) != (*snapFile != "") {
		fail(fmt.Errorf("-snapshot-at and -snapshot-file must be used together"))
	}
	if *restorePath != "" && *snapFile != "" {
		fail(fmt.Errorf("-restore and -snapshot-at are mutually exclusive"))
	}
	if (*snapFile != "" || *restorePath != "") && *tracePath != "" {
		fail(fmt.Errorf("-trace cannot be combined with checkpoints (event spans cannot be snapshotted)"))
	}

	var cfg config.Config
	switch *cfgName {
	case "volta":
		cfg = config.Volta()
	case "small":
		cfg = config.Small()
	default:
		fail(fmt.Errorf("unknown config %q", *cfgName))
	}
	cfg.Seed = *seed
	switch *arbName {
	case "rr":
		cfg.NoC.Arbitration = config.ArbRR
	case "crr":
		cfg.NoC.Arbitration = config.ArbCRR
	case "srr":
		cfg.NoC.Arbitration = config.ArbSRR
	case "age":
		cfg.NoC.Arbitration = config.ArbAge
	default:
		fail(fmt.Errorf("unknown arbitration %q", *arbName))
	}

	targets := map[int]bool{}
	for _, tok := range strings.Split(*smsFlag, ",") {
		sm, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || sm < 0 || sm >= cfg.NumSMs() {
			fail(fmt.Errorf("bad SM id %q", tok))
		}
		targets[sm] = true
	}

	if *topology != "" {
		topo, err := config.ParseTopology(*topology)
		if err != nil {
			fail(err)
		}
		cfg.NVLink.Topology = topo
	}
	if *gpus >= 2 {
		if *tracePath != "" || *watch > 0 {
			fail(fmt.Errorf("-trace and -watch are not supported with -gpus"))
		}
		if *snapFile != "" || *restorePath != "" {
			fail(fmt.Errorf("checkpoints are not supported with -gpus"))
		}
		runMesh(cfg, *gpus, targets, *warps, *ops, *read, *smsFlag)
		return
	}

	if *tracePath != "" {
		cfg.Probes = probe.NewRegistry()
		cfg.Probes.EnableTrace(0)
	}
	if *watch > 0 {
		if cfg.Probes == nil {
			cfg.Probes = probe.NewRegistry()
		}
		cfg.Telemetry = telemetry.NewSampler(*watch, watchPrinter{})
	}

	smList := make([]int, 0, len(targets))
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if targets[sm] {
			smList = append(smList, sm)
		}
	}

	// The workload is a MaskedStreamer per warp — a concrete checkpointable
	// program, so a -snapshot-at/-restore round trip preserves warp
	// progress. Both the launching and the restoring path record every
	// instance they build; the report reads clocks back from them.
	const span = 8192
	var progs []*device.MaskedStreamer
	newProg := func(w int) *device.MaskedStreamer {
		m := &device.MaskedStreamer{
			SMs:         smList,
			Warp:        w,
			WarpsPerSM:  *warps,
			SpanBytes:   span,
			LineBytes:   cfg.L2LineBytes,
			Write:       !*read,
			Count:       *ops,
			Uncoalesced: true,
			WrapBytes:   span / 2,
		}
		progs = append(progs, m)
		return m
	}

	var g *engine.GPU
	if *restorePath != "" {
		blob, err := os.ReadFile(*restorePath)
		if err != nil {
			fail(err)
		}
		// The restore factory constructs zero-valued programs; every field
		// (including the per-warp placement) comes from the snapshot.
		g, err = engine.Restore(cfg, blob, engine.RestoreOptions{
			Programs: map[string]func() device.Checkpointable{
				"masked-streamer": func() device.Checkpointable { return newProg(0) },
			},
		})
		if err != nil {
			fail(err)
		}
	} else {
		var err error
		g, err = engine.New(cfg)
		if err != nil {
			fail(err)
		}
		g.Preload(0, uint64(cfg.NumSMs()**warps)*span)
		spec := device.KernelSpec{
			Name:          "gpusim",
			Blocks:        cfg.NumSMs(),
			WarpsPerBlock: *warps,
			New:           func(b, w int) device.Program { return newProg(w) },
		}
		if _, err := g.Launch(spec); err != nil {
			fail(err)
		}
		if *snapFile != "" {
			g.RunFor(*snapAt)
			blob, err := g.Snapshot()
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*snapFile, blob, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "gpusim: wrote %d-byte checkpoint at cycle %d -> %s\n",
				len(blob), g.Now(), *snapFile)
		}
	}
	if err := g.RunKernels(100_000_000); err != nil {
		fail(err)
	}

	kind := "write"
	if *read {
		kind = "read"
	}
	fmt.Printf("gpusim: %s, arbitration=%s, %d %s ops x %d warps on SMs %v\n",
		cfg.Name, cfg.NoC.Arbitration, *ops, kind, *warps, *smsFlag)
	perSM := map[int]uint64{}
	for _, m := range progs {
		if m.Active() && m.EndClock > m.StartClock {
			if d := m.EndClock - m.StartClock; d > perSM[m.SMID] {
				perSM[m.SMID] = d
			}
		}
	}
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if d, ok := perSM[sm]; ok {
			fmt.Printf("  SM%-3d TPC%-2d GPC%d: %8d cycles (%.2f us at %dMHz)\n",
				sm, cfg.TPCOfSM(sm), cfg.GPCOfSM(sm), d,
				cfg.CyclesToSeconds(d)*1e6, cfg.CoreClockMHz)
		}
	}
	st := g.Partition().Stats()
	fmt.Printf("  L2: %d served, %d hits, %d misses\n", st.Served, st.Hits, st.Misses)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		tr := g.Probes().Tracer()
		if err := probe.WriteChrome(f, tr); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("  trace: %d events on %d tracks -> %s (open at ui.perfetto.dev)\n",
			len(tr.Events()), len(tr.Tracks()), *tracePath)
	}
}

// runMesh is the -gpus mode: an N-device NVLink mesh where the activated SMs
// of device 0 stream into a window owned by device 1, so every memory op
// crosses the fabric, followed by a per-link statistics report.
func runMesh(cfg config.Config, gpus int, targets map[int]bool, warps, ops int, read bool, smsFlag string) {
	m, err := mesh.New(cfg, gpus)
	if err != nil {
		fail(err)
	}

	const span = 8192
	remoteBase := mesh.DevBase(1)
	m.Preload(1, remoteBase, uint64(cfg.NumSMs()*warps)*span)

	type result struct {
		sm    int
		start uint64
		end   uint64
	}
	var results []*result
	spec := device.KernelSpec{
		Name:          "gpusim-mesh",
		Blocks:        cfg.NumSMs(),
		WarpsPerBlock: warps,
		New: func(b, w int) device.Program {
			r := &result{sm: -1}
			results = append(results, r)
			var inner device.Streamer
			started := false
			return device.StepFunc(func(ctx *device.Ctx) device.Op {
				if !started {
					started = true
					if !targets[ctx.SMID] {
						return device.Done()
					}
					r.sm = ctx.SMID
					r.start = ctx.Clock64
					inner = device.Streamer{
						Base:        remoteBase + uint64(ctx.SMID*warps+w)*span,
						LineBytes:   cfg.L2LineBytes,
						Write:       !read,
						Count:       ops,
						Uncoalesced: true,
						WrapBytes:   span / 2,
					}
				}
				if r.sm < 0 {
					return device.Done()
				}
				op := inner.Step(ctx)
				if op.Kind == device.OpDone && r.end == 0 {
					r.end = ctx.Clock64
				}
				return op
			})
		},
	}
	if _, err := m.Launch(0, spec); err != nil {
		fail(err)
	}
	if err := m.RunKernels(100_000_000); err != nil {
		fail(err)
	}

	kind := "write"
	if read {
		kind = "read"
	}
	topo := cfg.NVLink.WithDefaults().Topology
	fmt.Printf("gpusim: %s mesh of %d GPUs (%s), %d remote %s ops x %d warps on device-0 SMs %v\n",
		cfg.Name, gpus, topo, ops, kind, warps, smsFlag)
	perSM := map[int]uint64{}
	for _, r := range results {
		if r.sm >= 0 && r.end > r.start {
			if d := r.end - r.start; d > perSM[r.sm] {
				perSM[r.sm] = d
			}
		}
	}
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if d, ok := perSM[sm]; ok {
			fmt.Printf("  SM%-3d TPC%-2d GPC%d: %8d cycles (%.2f us at %dMHz)\n",
				sm, cfg.TPCOfSM(sm), cfg.GPCOfSM(sm), d,
				cfg.CyclesToSeconds(d)*1e6, cfg.CoreClockMHz)
		}
	}
	st := m.GPU(1).Partition().Stats()
	fmt.Printf("  remote L2 (device 1): %d served, %d hits, %d misses\n", st.Served, st.Hits, st.Misses)
	for _, l := range m.Links() {
		s := l.Stats()
		fmt.Printf("  %-24s %8d packets %10d flits  queue-wait %10d  max-queue %4d\n",
			l.Name(), s.Packets, s.Flits, s.QueueWait, s.MaxQueueLen)
	}
}
