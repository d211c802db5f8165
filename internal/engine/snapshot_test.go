package engine

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/probe"
	"gpunoc/internal/snap"
	"gpunoc/internal/telemetry"
)

// snapCfg keeps the Volta jitters enabled: the RNG streams must survive the
// snapshot (as draw counts) for the restored run to replay identically.
func snapCfg() config.Config {
	cfg := config.Small()
	cfg.Seed = 99
	return cfg
}

// launchSnapWorkload preloads and launches the standard streamer kernel.
func launchSnapWorkload(t *testing.T, g *GPU) *Kernel {
	t.Helper()
	preloadStreamers(g, 8)
	spec, _ := streamerKernel("snap", 4, 2, 40, true, true, g.Config().L2LineBytes)
	k, err := g.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// finalState runs the engine until every kernel completes and returns the
// end-of-run snapshot bytes plus the kernel durations.
func finalState(t *testing.T, g *GPU) ([]byte, []uint64) {
	t.Helper()
	if err := g.RunKernels(2_000_000); err != nil {
		t.Fatal(err)
	}
	blob, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var durs []uint64
	for _, k := range g.Kernels() {
		durs = append(durs, k.Duration())
	}
	return blob, durs
}

// TestSnapshotRestoreReplaysBitIdentically is the acceptance bar of the
// checkpoint subsystem: a run restored from a mid-traffic snapshot must be
// bit-identical — same end-of-run snapshot bytes, same kernel durations —
// to a run that was never interrupted, and taking the snapshot must not
// perturb the snapshotting run either.
func TestSnapshotRestoreReplaysBitIdentically(t *testing.T) {
	cfg := snapCfg()

	ref := mkGPU(t, cfg) // uninterrupted reference
	launchSnapWorkload(t, ref)

	cut := mkGPU(t, cfg) // snapshotted mid-flight, then continues
	launchSnapWorkload(t, cut)

	const snapAt = 700
	cut.RunFor(snapAt)
	if cut.Idle() {
		t.Fatalf("no traffic in flight at cycle %d; snapshot point is not mid-traffic", snapAt)
	}
	blob, err := cut.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	rest, err := Restore(cfg, blob, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rest.Now() != cut.Now() {
		t.Fatalf("restored clock %d, want %d", rest.Now(), cut.Now())
	}

	refEnd, refDurs := finalState(t, ref)
	cutEnd, cutDurs := finalState(t, cut)
	restEnd, restDurs := finalState(t, rest)

	if !reflect.DeepEqual(refDurs, cutDurs) {
		t.Fatalf("snapshotting perturbed the run: durations %v vs %v", refDurs, cutDurs)
	}
	if !reflect.DeepEqual(refDurs, restDurs) {
		t.Fatalf("restored run diverged: durations %v vs %v", refDurs, restDurs)
	}
	if string(refEnd) != string(cutEnd) {
		t.Fatal("snapshotting perturbed the run: end-of-run snapshots differ")
	}
	if string(refEnd) != string(restEnd) {
		t.Fatal("restored run diverged: end-of-run snapshots differ")
	}
}

// TestSnapshotRestoreAcrossWorkerCounts pins that the deprecated
// EngineWorkers knob stays out of checkpoints: a snapshot taken under a
// configuration that still sets it restores bit-identically under one that
// does not, because the knob is excluded from the config hash and selects
// nothing.
func TestSnapshotRestoreAcrossWorkerCounts(t *testing.T) {
	cfg4 := snapCfg()
	cfg4.EngineWorkers = 4

	ref := mkGPU(t, snapCfg())
	launchSnapWorkload(t, ref)
	refEnd, refDurs := finalState(t, ref)

	src := mkGPU(t, cfg4)
	launchSnapWorkload(t, src)
	src.RunFor(700)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	rest, err := Restore(snapCfg(), blob, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restEnd, restDurs := finalState(t, rest)

	if !reflect.DeepEqual(refDurs, restDurs) {
		t.Fatalf("EngineWorkers=4 snapshot restored without the knob diverged: durations %v vs %v", refDurs, restDurs)
	}
	if string(refEnd) != string(restEnd) {
		t.Fatal("EngineWorkers=4 snapshot restored without the knob diverged: end-of-run snapshots differ")
	}
}

// TestSnapshotRestoreWithProbesAndTelemetry pins the observer side of the
// restore-≡-replay contract: metric values cross the snapshot, and the
// telemetry windows emitted after a restore equal the windows the
// uninterrupted run emitted over the same span.
func TestSnapshotRestoreWithProbesAndTelemetry(t *testing.T) {
	build := func() (config.Config, *telemetry.Recorder) {
		cfg := snapCfg()
		rec := &telemetry.Recorder{}
		cfg.Probes = probe.NewRegistry()
		cfg.Telemetry = telemetry.NewSampler(256, rec)
		return cfg, rec
	}

	refCfg, refRec := build()
	ref := mkGPU(t, refCfg)
	launchSnapWorkload(t, ref)
	if err := ref.RunKernels(2_000_000); err != nil {
		t.Fatal(err)
	}
	refMetrics := ref.ProbeSnapshot()

	cutCfg, cutRec := build()
	cut := mkGPU(t, cutCfg)
	launchSnapWorkload(t, cut)
	cut.RunFor(700)
	preWindows := len(cutRec.Windows())
	blob, err := cut.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restCfg, restRec := build()
	rest, err := Restore(restCfg, blob, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.RunKernels(2_000_000); err != nil {
		t.Fatal(err)
	}
	restMetrics := rest.ProbeSnapshot()

	if rest.Now() != ref.Now() {
		t.Fatalf("restored run finished at cycle %d, reference at %d", rest.Now(), ref.Now())
	}
	if !reflect.DeepEqual(refMetrics, restMetrics) {
		t.Fatalf("probe snapshots diverged across restore:\nref:  %+v\nrest: %+v", refMetrics, restMetrics)
	}
	want := refRec.Windows()[preWindows:]
	got := restRec.Windows()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-snapshot telemetry windows diverged: want %d windows %+v, got %d windows %+v",
			len(want), want, len(got), got)
	}
}

// TestSnapshotStepFuncProgramFails pins the typed error for closure-based
// programs: their captured variables are opaque, so the snapshot must refuse.
func TestSnapshotStepFuncProgramFails(t *testing.T) {
	g := mkGPU(t, snapCfg())
	spec := device.KernelSpec{
		Name: "closure", Blocks: 1, WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			return device.StepFunc(func(ctx *device.Ctx) device.Op { return device.Done() })
		},
	}
	if _, err := g.Launch(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Snapshot(); !errors.Is(err, device.ErrNotCheckpointable) {
		t.Fatalf("snapshot of a StepFunc kernel: got %v, want ErrNotCheckpointable", err)
	}
}

// TestSnapshotTraceEnabledFails pins the typed error for tracing registries.
func TestSnapshotTraceEnabledFails(t *testing.T) {
	cfg := snapCfg()
	cfg.Probes = probe.NewRegistry()
	cfg.Probes.EnableTrace(0)
	g := mkGPU(t, cfg)
	if _, err := g.Snapshot(); !errors.Is(err, ErrTraceEnabled) {
		t.Fatalf("snapshot with tracing: got %v, want ErrTraceEnabled", err)
	}
}

// TestRestoreRejectsSkewAndCorruption pins the failure modes of the blob
// format at the engine level: a bumped format version, a truncated payload,
// and a config-hash mismatch must each fail fast with their typed error.
func TestRestoreRejectsSkewAndCorruption(t *testing.T) {
	cfg := snapCfg()
	g := mkGPU(t, cfg)
	launchSnapWorkload(t, g)
	g.RunFor(500)
	blob, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	skewed := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(skewed[4:], snap.Version+1)
	if _, err := Restore(cfg, skewed, RestoreOptions{}); !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("bumped version: got %v, want ErrVersion", err)
	}

	if _, err := Restore(cfg, blob[:len(blob)-3], RestoreOptions{}); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("truncated payload: got %v, want ErrCorrupt", err)
	}

	other := cfg
	other.Seed++
	if _, err := Restore(other, blob, RestoreOptions{}); !errors.Is(err, snap.ErrConfigMismatch) {
		t.Fatalf("mismatched config: got %v, want ErrConfigMismatch", err)
	}
}
