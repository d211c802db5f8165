package arb

import (
	"errors"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/packet"
	"gpunoc/internal/snap"
)

// roundTrip encodes with write and restores the blob into a.
func roundTrip(t *testing.T, a Arbiter, write func(*snap.Encoder)) error {
	t.Helper()
	e := snap.NewEncoder()
	write(e)
	d, err := snap.NewDecoder(e.Finish(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(d, a); err != nil {
		return err
	}
	return d.Err()
}

// crrFields writes a coarseRR grant state in Snapshot's field order.
func crrFields(last, heldIn, heldUsed int) func(*snap.Encoder) {
	return func(e *snap.Encoder) {
		e.U8(uint8(config.ArbCRR))
		e.Int(last)
		e.Bool(true)
		e.Int(heldIn)
		e.Int(0) // heldTag.SM
		e.Int(0) // heldTag.Warp
		e.U64(0) // heldTag.Op
		e.Int(heldUsed)
	}
}

// TestRestoreRejectsOutOfRangeIndex pins that a hostile blob cannot plant an
// input index the modulo-free round-robin scan would read out of range, nor
// a negative CRR hold count: each is ErrCorrupt, never a later panic.
func TestRestoreRejectsOutOfRangeIndex(t *testing.T) {
	const n = 4
	rrLast := func(last int) func(*snap.Encoder) {
		return func(e *snap.Encoder) {
			e.U8(uint8(config.ArbRR))
			e.Int(last)
		}
	}
	cases := []struct {
		name   string
		policy config.ArbPolicy
		write  func(*snap.Encoder)
	}{
		{"rr last negative", config.ArbRR, rrLast(-1)},
		{"rr last n", config.ArbRR, rrLast(n)},
		{"rr last huge", config.ArbRR, rrLast(1 << 40)},
		{"crr last negative", config.ArbCRR, crrFields(-1, 0, 1)},
		{"crr last n", config.ArbCRR, crrFields(n, 0, 1)},
		{"crr heldIn negative", config.ArbCRR, crrFields(0, -1, 1)},
		{"crr heldIn n", config.ArbCRR, crrFields(0, n, 1)},
		{"crr heldUsed negative", config.ArbCRR, crrFields(0, 0, -1)},
	}
	for _, c := range cases {
		a := mustNew(t, c.policy, n)
		if err := roundTrip(t, a, c.write); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrCorrupt", c.name, err)
		}
	}
	// The boundary values themselves are valid state.
	for _, w := range []func(*snap.Encoder){rrLast(0), rrLast(n - 1)} {
		if err := roundTrip(t, mustNew(t, config.ArbRR, n), w); err != nil {
			t.Errorf("valid RR state rejected: %v", err)
		}
	}
	for _, w := range []func(*snap.Encoder){crrFields(0, 0, 0), crrFields(n-1, n-1, 5)} {
		if err := roundTrip(t, mustNew(t, config.ArbCRR, n), w); err != nil {
			t.Errorf("valid CRR state rejected: %v", err)
		}
	}
}

// TestSnapshotRestoreRoundTrip checks that restored grant state reproduces
// the original arbiter's next decisions for every policy.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	heads := []*packet.Packet{pk(0, 0, 1, 3), nil, pk(2, 1, 7, 1), pk(3, 0, 2, 2)}
	for _, p := range []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR, config.ArbAge, config.ArbFixed} {
		a := mustNew(t, p, len(heads))
		for now := uint64(0); now < 5; now++ {
			a.Grant(now, heads)
		}
		b := mustNew(t, p, len(heads))
		if err := roundTrip(t, b, func(e *snap.Encoder) { Snapshot(e, a) }); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for now := uint64(5); now < 20; now++ {
			if ga, gb := a.Grant(now, heads), b.Grant(now, heads); ga != gb {
				t.Fatalf("%v: cycle %d granted %d, restored granted %d", p, now, ga, gb)
			}
		}
	}
}
