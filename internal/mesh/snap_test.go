package mesh

import (
	"errors"
	"reflect"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/snap"
)

// launchCrossStreams puts one remote-reading kernel on each of two devices,
// so request and reply traffic is in flight on the fabric in both
// directions.
func launchCrossStreams(t *testing.T, m *Mesh) {
	t.Helper()
	const window = uint64(8192)
	lineBytes := m.GPU(0).Config().L2LineBytes
	for d := 0; d < 2; d++ {
		peer := 1 - d
		spec, _ := streamerSpec("cross", 2, 60, DevBase(peer)+0x100000, window, false, lineBytes)
		m.Preload(peer, DevBase(peer)+0x100000, 2*window)
		if _, err := m.Launch(d, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// meshFinalState runs the mesh to completion and returns the end-of-run
// snapshot bytes plus every device's kernel durations.
func meshFinalState(t *testing.T, m *Mesh) ([]byte, []uint64) {
	t.Helper()
	if err := m.RunKernels(8_000_000); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var durs []uint64
	for d := 0; d < m.NumDevices(); d++ {
		for _, k := range m.GPU(d).Kernels() {
			durs = append(durs, k.Duration())
		}
	}
	return blob, durs
}

// TestMeshSnapshotRestoreReplaysBitIdentically extends the restore-≡-replay
// bar to the multi-GPU mesh: a 2-device mesh with cross-GPU traffic in both
// directions, snapshotted mid-flight with packets on the NVLink fabric,
// must replay bit-identically after restore.
func TestMeshSnapshotRestoreReplaysBitIdentically(t *testing.T) {
	cfg := config.Small()
	cfg.Seed = 7

	ref, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	launchCrossStreams(t, ref)

	cut, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	launchCrossStreams(t, cut)

	const snapAt = 900
	cut.RunFor(snapAt)
	if cut.quiet() {
		t.Fatalf("mesh quiet at cycle %d; snapshot point is not mid-traffic", snapAt)
	}
	blob, err := cut.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	rest, err := Restore(cfg, 2, blob, engine.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rest.Now() != cut.Now() {
		t.Fatalf("restored global clock %d, want %d", rest.Now(), cut.Now())
	}

	refEnd, refDurs := meshFinalState(t, ref)
	cutEnd, cutDurs := meshFinalState(t, cut)
	restEnd, restDurs := meshFinalState(t, rest)

	if !reflect.DeepEqual(refDurs, cutDurs) {
		t.Fatalf("snapshotting perturbed the mesh: durations %v vs %v", refDurs, cutDurs)
	}
	if !reflect.DeepEqual(refDurs, restDurs) {
		t.Fatalf("restored mesh diverged: durations %v vs %v", refDurs, restDurs)
	}
	if string(refEnd) != string(cutEnd) {
		t.Fatal("snapshotting perturbed the mesh: end-of-run snapshots differ")
	}
	if string(refEnd) != string(restEnd) {
		t.Fatal("restored mesh diverged: end-of-run snapshots differ")
	}
}

// TestMeshRestoreRejectsMismatches pins the typed failures at the mesh
// level: wrong base config and wrong device count must both fail fast.
func TestMeshRestoreRejectsMismatches(t *testing.T) {
	cfg := config.Small()
	cfg.Seed = 7
	m, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	launchCrossStreams(t, m)
	m.RunFor(500)
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed++
	if _, err := Restore(other, 2, blob, engine.RestoreOptions{}); !errors.Is(err, snap.ErrConfigMismatch) {
		t.Fatalf("mismatched base config: got %v, want ErrConfigMismatch", err)
	}
	if _, err := Restore(cfg, 3, blob, engine.RestoreOptions{}); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("mismatched device count: got %v, want ErrCorrupt", err)
	}
}
