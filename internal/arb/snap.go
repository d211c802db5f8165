package arb

import (
	"fmt"

	"gpunoc/internal/packet"
	"gpunoc/internal/snap"
)

// Snapshot appends an arbiter's mutable grant state to the encoder. The
// counting instrumentation wrapper is transparent (its probe counters are
// restored with the probe registry), and the stateless policies (SRR, age,
// fixed) contribute nothing beyond their policy byte, which guards against
// restoring into a mux built under a different arbitration policy.
func Snapshot(e *snap.Encoder, a Arbiter) {
	if c, ok := a.(*counting); ok {
		a = c.inner
	}
	e.U8(uint8(a.Policy()))
	switch v := a.(type) {
	case *roundRobin:
		e.Int(v.last)
	case *coarseRR:
		e.Int(v.rr.last)
		e.Bool(v.holding)
		e.Int(v.heldIn)
		e.Int(v.heldTag.SM)
		e.Int(v.heldTag.Warp)
		e.U64(v.heldTag.Op)
		e.Int(v.heldUsed)
	case *strictRR, *ageBased, *fixedPriority:
		// stateless
	default:
		// New can only build the five types above; keep the encode total.
	}
}

// Restore reads grant state written by Snapshot back into an arbiter of the
// same policy (the restoring engine rebuilds muxes from the same
// configuration, so the dynamic types always line up; a mismatch means the
// snapshot is being restored into the wrong mux and fails).
func Restore(d *snap.Decoder, a Arbiter) error {
	if c, ok := a.(*counting); ok {
		a = c.inner
	}
	if got := d.U8(); got != uint8(a.Policy()) {
		return fmt.Errorf("%w: arbiter policy %d in snapshot, mux runs %v", snap.ErrCorrupt, got, a.Policy())
	}
	switch v := a.(type) {
	case *roundRobin:
		last := d.Int()
		if err := checkInput("round-robin last grant", last, v.n); err != nil {
			return err
		}
		v.last = last
	case *coarseRR:
		last := d.Int()
		holding := d.Bool()
		heldIn := d.Int()
		tag := packet.WarpTag{SM: d.Int(), Warp: d.Int(), Op: d.U64()}
		heldUsed := d.Int()
		if err := checkInput("coarse round-robin last grant", last, v.rr.n); err != nil {
			return err
		}
		if err := checkInput("coarse round-robin held input", heldIn, v.rr.n); err != nil {
			return err
		}
		if heldUsed < 0 {
			return snap.Corruptf("coarse round-robin hold count %d is negative", heldUsed)
		}
		v.rr.last, v.holding, v.heldIn, v.heldTag, v.heldUsed = last, holding, heldIn, tag, heldUsed
	}
	return nil
}

// checkInput rejects a decoded input index outside [0,n): the modulo-free
// round-robin scan would index out of range on it.
func checkInput(what string, i, n int) error {
	if i < 0 || i >= n {
		return snap.Corruptf("%s %d outside [0,%d)", what, i, n)
	}
	return nil
}
