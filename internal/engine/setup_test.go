package engine

// Tests that pin the cost of building an engine and the snapshot format
// while setup stays lazy: RNG sources and cache-line arrays are created on
// first use, yet a fresh or mid-run snapshot must keep its exact bytes.

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/probe"
)

// Golden SHA-256 digests of Snapshot() bytes. They were taken before RNG
// seeding and cache-line allocation became lazy, so a match proves the lazy
// paths encode exactly what eager ones did. A deliberate format change must
// bump snap.Version and regenerate both.
const (
	goldenFreshVolta = "0fa8a42158d9dbfa65c30993f8276ee282b25de96883348579205ffbe68e0df9"
	goldenSmallAt700 = "a2fea302a68aa6a8f43caee5977306c2d74af844271bf680b4269b3aeb3a7d27"
)

func snapshotDigest(t *testing.T, g *GPU) string {
	t.Helper()
	blob, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotGoldenDigests pins the snapshot bytes of a freshly built
// Volta (every RNG unseeded, every cache untouched) and of the small
// configuration mid-traffic (some caches and RNG streams in use, others
// not).
func TestSnapshotGoldenDigests(t *testing.T) {
	if got := snapshotDigest(t, mkGPU(t, config.Volta())); got != goldenFreshVolta {
		t.Errorf("fresh Volta snapshot digest %s, want %s", got, goldenFreshVolta)
	}
	g := mkGPU(t, snapCfg())
	launchSnapWorkload(t, g)
	g.RunFor(700)
	if got := snapshotDigest(t, g); got != goldenSmallAt700 {
		t.Errorf("small mid-run snapshot digest %s, want %s", got, goldenSmallAt700)
	}
}

// TestNewVoltaAllocBudget bounds the bytes engine.New allocates for the
// full Volta topology. Experiments build engines by the hundred, so setup
// must not pay for state (cache lines, seeded RNGs) a run may never touch.
func TestNewVoltaAllocBudget(t *testing.T) {
	cfg := config.Volta()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(g)
	const budget = 1 << 20
	n := after.TotalAlloc - before.TotalAlloc
	if n >= budget {
		t.Fatalf("engine.New(config.Volta()) allocated %d bytes, budget %d", n, budget)
	}
	t.Logf("engine.New(config.Volta()) allocated %d bytes", n)
}

// TestDroppedEnginesAreCollected builds, runs and drops many Volta engines
// and checks that neither the live heap nor the goroutine count grows: an
// engine must hold nothing that outlives its last reference.
func TestDroppedEnginesAreCollected(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heap0, goroutines0 := liveHeap(), runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		cfg := config.Volta()
		cfg.Seed = int64(i)
		g := mkGPU(t, cfg)
		preloadStreamers(g, 4)
		spec, _ := streamerKernel("leak", 2, 2, 4, i%2 == 0, true, cfg.L2LineBytes)
		if _, err := g.Launch(spec); err != nil {
			t.Fatal(err)
		}
		if err := g.RunKernels(200_000); err != nil {
			t.Fatal(err)
		}
	}
	const slack = 8 << 20
	if heap := liveHeap(); heap > heap0+slack {
		t.Errorf("live heap grew from %d to %d bytes across 50 dropped engines", heap0, heap)
	}
	if n := runtime.NumGoroutine(); n > goroutines0+2 {
		t.Errorf("goroutines grew from %d to %d across 50 dropped engines", goroutines0, n)
	}
}

// TestWorkerResolution pins the deprecated Config.EngineWorkers contract:
// every setting, alone or combined with exhaustive ticking or probes,
// resolves to the single sequential tick loop.
func TestWorkerResolution(t *testing.T) {
	for _, mut := range []func(*config.Config){
		func(c *config.Config) { c.EngineWorkers = 0 },
		func(c *config.Config) { c.EngineWorkers = 1 },
		func(c *config.Config) { c.EngineWorkers = 8 },
		func(c *config.Config) { c.EngineWorkers = 4; c.ExhaustiveTick = true },
		func(c *config.Config) { c.EngineWorkers = 4; c.Probes = probe.NewRegistry() },
	} {
		cfg := testCfg()
		mut(&cfg)
		if got := mkGPU(t, cfg).Workers(); got != 1 {
			t.Errorf("EngineWorkers=%d resolved to %d workers, want 1", cfg.EngineWorkers, got)
		}
	}
}

// TestCloseIdempotent pins the deprecated Close contract: it may be called
// any number of times, and a closed engine keeps stepping correctly because
// there is nothing to release.
func TestCloseIdempotent(t *testing.T) {
	cfg := testCfg()
	g := mkGPU(t, cfg)
	preloadStreamers(g, 1)
	spec, _ := streamerKernel("c", 1, 1, 5, true, true, cfg.L2LineBytes)
	if _, err := g.Launch(spec); err != nil {
		t.Fatal(err)
	}
	g.RunFor(100)
	g.Close()
	g.Close()
	if err := g.RunKernels(100_000); err != nil {
		t.Fatal(err)
	}
}
