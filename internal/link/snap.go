package link

import (
	"gpunoc/internal/arb"
	"gpunoc/internal/packet"
	"gpunoc/internal/snap"
)

// Snapshot appends the link's mutable state — every input queue, the
// in-flight pipe, the scaled channel-busy horizon, the activity counters,
// and the arbiter's grant state — to the encoder. Wiring (fan-in, rate,
// latency, sinks) is rebuilt from configuration by the restoring side.
func (l *Link) Snapshot(e *snap.Encoder) {
	e.Int(len(l.queues))
	for i := range l.queues {
		q := &l.queues[i]
		e.Int(q.Len())
		for j := 0; j < q.Len(); j++ {
			item := q.At(j)
			packet.Encode(e, item.p)
			e.U64(item.enqueued)
		}
	}
	e.Int(l.pipe.Len())
	for j := 0; j < l.pipe.Len(); j++ {
		f := l.pipe.At(j)
		packet.Encode(e, f.p)
		e.U64(f.deliverAt)
	}
	e.U64(l.lastEnd)
	e.U64(l.stats.Packets)
	e.U64(l.stats.Flits)
	e.U64(l.stats.QueueWait)
	e.Int(l.stats.MaxQueueLen)
	arb.Snapshot(e, l.arbiter)
}

// Restore reads state written by Snapshot into a link built from the same
// configuration and rebuilds the derived head-of-line slots from the decoded
// queues. Probe gauges are not re-driven here — the probe registry restores
// its instrument values wholesale.
func (l *Link) Restore(d *snap.Decoder) error {
	if n := d.Int(); d.Err() == nil && n != len(l.queues) {
		return snap.Corruptf("link %s: snapshot has %d input queues, link has %d", l.name, n, len(l.queues))
	}
	for i := range l.queues {
		q := &l.queues[i]
		for q.Len() > 0 {
			q.Pop()
		}
		n := d.Len()
		for j := 0; j < n; j++ {
			p := packet.Decode(d)
			q.Push(queued{p: p, enqueued: d.U64()})
		}
	}
	for l.pipe.Len() > 0 {
		l.pipe.Pop()
	}
	np := d.Len()
	for j := 0; j < np; j++ {
		p := packet.Decode(d)
		l.pipe.Push(inflight{p: p, deliverAt: d.U64()})
	}
	l.loaded = 0
	for i := range l.queues {
		l.heads[i] = nil
		if l.queues[i].Len() > 0 {
			l.heads[i] = l.queues[i].Front().p
			l.loaded++
		}
	}
	l.lastEnd = d.U64()
	l.stats.Packets = d.U64()
	l.stats.Flits = d.U64()
	l.stats.QueueWait = d.U64()
	l.stats.MaxQueueLen = d.Int()
	if err := arb.Restore(d, l.arbiter); err != nil {
		return err
	}
	return d.Err()
}
