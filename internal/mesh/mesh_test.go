package mesh

import (
	"fmt"
	"strings"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
)

// streamerSpec builds a one-block kernel of warps streamers over
// [base, base+window) and returns the spec plus the per-warp streamers for
// latency inspection.
func streamerSpec(name string, warps, count int, base, window uint64, write bool, lineBytes int) (device.KernelSpec, *[]*device.Streamer) {
	progs := &[]*device.Streamer{}
	spec := device.KernelSpec{
		Name:          name,
		Blocks:        1,
		WarpsPerBlock: warps,
		New: func(b, w int) device.Program {
			s := &device.Streamer{
				Base:        base + uint64(w)*window,
				LineBytes:   lineBytes,
				Write:       write,
				Count:       count,
				Uncoalesced: true,
				WrapBytes:   window,
			}
			*progs = append(*progs, s)
			return s
		},
	}
	return spec, progs
}

func meanLatency(progs *[]*device.Streamer) float64 {
	var sum, n uint64
	for _, s := range *progs {
		for _, l := range s.Latencies {
			sum += l
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// TestMeshRemoteVsLocal pins the headline NVLink effect: the same read
// stream is slower against a remote device's memory than against local
// memory, by at least the two hop latencies.
func TestMeshRemoteVsLocal(t *testing.T) {
	cfg := config.Small()
	m, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}

	const window = uint64(8192)
	const count = 40
	lineBytes := cfg.L2LineBytes

	localSpec, localProgs := streamerSpec("local", 1, count, DevBase(0)+0x100000, window, false, lineBytes)
	m.Preload(0, DevBase(0)+0x100000, window)
	if _, err := m.Launch(0, localSpec); err != nil {
		t.Fatal(err)
	}
	if err := m.RunKernels(4_000_000); err != nil {
		t.Fatal(err)
	}

	remoteSpec, remoteProgs := streamerSpec("remote", 1, count, DevBase(1)+0x100000, window, false, lineBytes)
	m.Preload(1, DevBase(1)+0x100000, window)
	if _, err := m.Launch(0, remoteSpec); err != nil {
		t.Fatal(err)
	}
	if err := m.RunKernels(8_000_000); err != nil {
		t.Fatal(err)
	}

	local, remote := meanLatency(localProgs), meanLatency(remoteProgs)
	if local <= 0 || remote <= 0 {
		t.Fatalf("missing latencies: local %.1f remote %.1f", local, remote)
	}
	nv := cfg.NVLink.WithDefaults()
	if remote < local+float64(nv.HopLatency) {
		t.Errorf("remote mean %.1f not clearly above local %.1f (hop latency %d)",
			remote, local, nv.HopLatency)
	}
	// The cross-GPU packets must actually have crossed the fabric.
	var flits uint64
	for _, l := range m.Links() {
		flits += l.Stats().Flits
	}
	if flits == 0 {
		t.Error("no flits crossed the NVLink fabric")
	}
}

// launchCrossTraffic saturates the fabric in both directions: every SM of
// each device streams uncoalesced writes into the other device's window.
func launchCrossTraffic(t *testing.T, m *Mesh, count int) {
	t.Helper()
	cfg := m.GPU(0).Config()
	const window = uint64(8192)
	for d := 0; d < m.NumDevices(); d++ {
		peer := (d + 1) % m.NumDevices()
		base := DevBase(peer) + 0x200000 + uint64(d)*0x40000
		m.Preload(peer, base, window*uint64(cfg.NumSMs()))
		spec := device.KernelSpec{
			Name:          fmt.Sprintf("cross%d", d),
			Blocks:        cfg.NumSMs(),
			WarpsPerBlock: 2,
			New: func(b, w int) device.Program {
				return &device.Streamer{
					Base:        base + uint64(b)*window,
					LineBytes:   cfg.L2LineBytes,
					Write:       true,
					Count:       count,
					Uncoalesced: true,
					WrapBytes:   window,
				}
			},
		}
		if _, err := m.Launch(d, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// signature captures every externally observable piece of mesh state.
func signature(m *Mesh) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d\n", m.Now())
	for d := 0; d < m.NumDevices(); d++ {
		g := m.GPU(d)
		st := g.Partition().Stats()
		fmt.Fprintf(&b, "dev%d now=%d served=%d hits=%d misses=%d", d, g.Now(), st.Served, st.Hits, st.Misses)
		for sm := 0; sm < g.Config().NumSMs(); sm++ {
			fmt.Fprintf(&b, " c%d=%d", sm, g.Clocks().Read64(sm, g.Now()))
		}
		for _, k := range g.Kernels() {
			fmt.Fprintf(&b, " k%d=%d/%d", k.ID, k.LaunchedAt, k.FinishedAt)
		}
		b.WriteString("\n")
	}
	for _, l := range m.Links() {
		s := l.Stats()
		fmt.Fprintf(&b, "link %s pk=%d fl=%d qw=%d mq=%d\n", l.Name(), s.Packets, s.Flits, s.QueueWait, s.MaxQueueLen)
	}
	return b.String()
}

// TestMeshLockstepDeterminism extends the engine lockstep test to a 2-GPU
// mesh: the same config and seed produce bit-identical clocks, partition
// stats, kernel timings, and fabric link stats — in checkpoints over 5000
// cycles — across repeated runs.
func TestMeshLockstepDeterminism(t *testing.T) {
	run := func() []string {
		cfg := config.Small()
		cfg.Seed = 7
		m, err := New(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		launchCrossTraffic(t, m, 400)
		var sigs []string
		for i := 0; i < 10; i++ {
			m.RunFor(500)
			sigs = append(sigs, signature(m))
		}
		return sigs
	}
	ref, again := run(), run()
	for i := range ref {
		if ref[i] != again[i] {
			t.Fatalf("rerun diverged at checkpoint %d:\n%s\nvs\n%s", i, ref[i], again[i])
		}
	}
}

// TestMeshSaturatedCrossGPU drives saturated bidirectional cross-GPU
// traffic through the remote outboxes and the fabric to completion.
func TestMeshSaturatedCrossGPU(t *testing.T) {
	m, err := New(config.Small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	launchCrossTraffic(t, m, 200)
	if err := m.RunKernels(20_000_000); err != nil {
		t.Fatal(err)
	}
	var flits uint64
	for _, l := range m.Links() {
		flits += l.Stats().Flits
	}
	if flits == 0 {
		t.Fatal("saturated run moved no flits across the fabric")
	}
}

// TestMeshDeviceSeedsDiffer pins the per-device seed derivation: meshed
// GPUs must not replay one RNG stream. The clock-register offsets are a
// direct function of the config seed, so two devices agreeing on every SM's
// offset would mean aliased seeds.
func TestMeshDeviceSeedsDiffer(t *testing.T) {
	cfg := config.Small()
	m, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s0, s1 := m.GPU(0).Config().Seed, m.GPU(1).Config().Seed; s0 == s1 {
		t.Fatalf("devices share seed %d", s0)
	}
	if m.GPU(0).Config().Seed != cfg.Seed {
		t.Errorf("device 0 must keep the base seed %d, got %d", cfg.Seed, m.GPU(0).Config().Seed)
	}
	same := true
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if m.GPU(0).Clocks().Read64(sm, 0) != m.GPU(1).Clocks().Read64(sm, 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("devices 0 and 1 drew identical clock-offset sequences")
	}
	// Derivation is itself deterministic.
	if config.DeviceSeed(cfg.Seed, 1) != config.DeviceSeed(cfg.Seed, 1) {
		t.Error("DeviceSeed is not deterministic")
	}
	if config.DeviceSeed(cfg.Seed, 1) == config.DeviceSeed(cfg.Seed, 2) {
		t.Error("DeviceSeed collides across devices")
	}
}

// TestMeshRejectsAliasedConfigs pins the un-aliasing validation: hand-built
// device configs sharing one probe registry or meter are rejected before
// any engine is built.
func TestMeshRejectsAliasedConfigs(t *testing.T) {
	a := config.Small()
	a.Meter = &config.CycleMeter{}
	b := a // shares the meter pointer
	if err := ValidateUnaliased([]config.Config{a, b}); err == nil {
		t.Error("shared meter not rejected")
	}
	c := a.Clone()
	if err := ValidateUnaliased([]config.Config{a, c}); err != nil {
		t.Errorf("cloned configs rejected: %v", err)
	}
}

// TestMeshSingleDeviceMatchesStandalone pins the degenerate case: a
// 1-device mesh is bit-identical to a standalone engine with the same
// config — same kernel timings, same partition stats, same clock.
func TestMeshSingleDeviceMatchesStandalone(t *testing.T) {
	cfg := config.Small()
	cfg.Seed = 5

	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := streamerSpec("solo", 2, 50, 0x40000, 8192, true, cfg.L2LineBytes)
	m.Preload(0, 0x40000, 2*8192)
	if _, err := m.Launch(0, spec); err != nil {
		t.Fatal(err)
	}
	if err := m.RunKernels(4_000_000); err != nil {
		t.Fatal(err)
	}

	g, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec2, _ := streamerSpec("solo", 2, 50, 0x40000, 8192, true, cfg.L2LineBytes)
	g.Preload(0x40000, 2*8192)
	if _, err := g.Launch(spec2); err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernels(4_000_000); err != nil {
		t.Fatal(err)
	}

	mk, gk := m.GPU(0).Kernels()[0], g.Kernels()[0]
	if mk.Duration() != gk.Duration() {
		t.Errorf("kernel duration diverged: mesh %d standalone %d", mk.Duration(), gk.Duration())
	}
	ms, gs := m.GPU(0).Partition().Stats(), g.Partition().Stats()
	if ms != gs {
		t.Errorf("partition stats diverged: mesh %+v standalone %+v", ms, gs)
	}
}

// TestMeshTopologies runs the same cross-GPU workload over each topology on
// 4 devices and checks traffic completes with the expected fabric shape.
func TestMeshTopologies(t *testing.T) {
	for _, topo := range []config.MeshTopology{config.TopoFullMesh, config.TopoRing, config.TopoNVSwitch} {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			cfg := config.Small()
			cfg.NVLink.Topology = topo
			m, err := New(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			wantLinks := map[config.MeshTopology]int{
				config.TopoFullMesh: 12, // ordered pairs
				config.TopoRing:     8,  // cw + ccw per device
				config.TopoNVSwitch: 8,  // ingress + egress per device
			}[topo]
			if got := len(m.Links()); got != wantLinks {
				t.Fatalf("topology %v built %d links, want %d", topo, got, wantLinks)
			}
			// Device 0 writes into device 2's window: distance 2 on the
			// ring (a forwarded route), one switch traversal, or a direct
			// link.
			const window = uint64(8192)
			base := DevBase(2) + 0x80000
			m.Preload(2, base, window)
			spec, progs := streamerSpec("hop", 1, 30, base, window, true, cfg.L2LineBytes)
			if _, err := m.Launch(0, spec); err != nil {
				t.Fatal(err)
			}
			if err := m.RunKernels(8_000_000); err != nil {
				t.Fatal(err)
			}
			if mean := meanLatency(progs); mean <= 0 {
				t.Error("no latencies recorded")
			}
		})
	}
}
