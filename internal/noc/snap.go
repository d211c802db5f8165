// Checkpoint support for the fabric: every link's queues plus the activity
// bit of each, in tick-group order. Restore routes the bits back into the
// active sets; in exhaustive mode, which has no sets, the bit is derived
// from Idle on the way out and dropped on the way in.
package noc

import (
	"gpunoc/internal/link"
	"gpunoc/internal/sched"
	"gpunoc/internal/snap"
)

// Snapshot appends the fabric's mutable state — every link of the five tick
// groups plus the canonical activity bit of each — to the encoder.
func (n *Network) Snapshot(e *snap.Encoder) {
	e.Mark("noc")
	for _, group := range [][]*link.Link{n.reqTPC, n.reqGPC, n.xbarIn, n.repGPC, n.repTPC} {
		e.Int(len(group))
		for _, l := range group {
			l.Snapshot(e)
		}
	}
	for t, l := range n.reqTPC {
		e.Bool(activeBit(n.actReqTPC, t, l))
	}
	for g, l := range n.reqGPC {
		e.Bool(activeBit(n.actReqGPC, g, l))
	}
	for s, l := range n.xbarIn {
		e.Bool(activeBit(n.actXbar, s, l))
	}
	for g, l := range n.repGPC {
		e.Bool(activeBit(n.actRepGPC, g, l))
	}
	for t, l := range n.repTPC {
		e.Bool(activeBit(n.actRepTPC, t, l))
	}
}

// Restore reads state written by Snapshot into a fabric built from the same
// configuration.
func (n *Network) Restore(d *snap.Decoder) error {
	d.Expect("noc")
	for _, group := range [][]*link.Link{n.reqTPC, n.reqGPC, n.xbarIn, n.repGPC, n.repTPC} {
		if c := d.Int(); d.Err() == nil && c != len(group) {
			return snap.Corruptf("snapshot holds %d links in a fabric group of %d", c, len(group))
		}
		for _, l := range group {
			if err := l.Restore(d); err != nil {
				return err
			}
		}
	}
	for t := range n.reqTPC {
		if d.Bool() {
			wakeBit(n.actReqTPC, t)
		}
	}
	for g := range n.reqGPC {
		if d.Bool() {
			wakeBit(n.actReqGPC, g)
		}
	}
	for s := range n.xbarIn {
		if d.Bool() {
			wakeBit(n.actXbar, s)
		}
	}
	for g := range n.repGPC {
		if d.Bool() {
			wakeBit(n.actRepGPC, g)
		}
	}
	for t := range n.repTPC {
		if d.Bool() {
			wakeBit(n.actRepTPC, t)
		}
	}
	return d.Err()
}

// activeBit reads link i's activity bit; in exhaustive mode (no set) it
// derives the bit from Idle, which is exact for simulation state (parking
// is only legal when ticking is a no-op).
func activeBit(set *sched.ActiveSet, i int, l *link.Link) bool {
	if set == nil {
		return !l.Idle()
	}
	return set.Active(i)
}

// wakeBit routes a restored activity bit into the active set, if any.
func wakeBit(set *sched.ActiveSet, i int) {
	if set != nil {
		set.Wake(i)
	}
}
