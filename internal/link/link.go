// Package link models a shared, bandwidth-limited interconnect channel fed
// by several input queues through an arbiter. Every shared resource of the
// GPU NoC — the 2:1 TPC mux, the 7:1 GPC mux with speedup, crossbar ports,
// and L2 slice ingress/egress — is an instance of Link. Contention shows up
// as queueing delay at the link inputs, which is precisely the timing signal
// the covert channel measures.
//
// Bandwidth is a rational number of flits per cycle (num/den). Serialization
// uses integer arithmetic in a time base scaled by num: a packet of F flits
// occupies the channel for F*den scaled units, so fractional speedups such
// as the calibrated 3.27 flits/cycle reply-side GPC channel are exact.
package link

import (
	"fmt"

	"gpunoc/internal/arb"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
	"gpunoc/internal/ring"
)

// Deliver receives a packet when it exits the link (after serialization and
// pipeline latency).
type Deliver func(now uint64, p *packet.Packet)

// Stats aggregates link activity counters.
type Stats struct {
	Packets     uint64 // packets transferred
	Flits       uint64 // flits transferred
	QueueWait   uint64 // total cycles packets spent waiting in input queues
	MaxQueueLen int    // high-water mark across all input queues
}

type queued struct {
	p        *packet.Packet
	enqueued uint64
}

type inflight struct {
	p         *packet.Packet
	deliverAt uint64
}

// Link is a single shared channel. It is not safe for concurrent use; the
// simulation engine ticks all components from one goroutine.
type Link struct {
	name    string
	num     uint64 // bandwidth numerator (flits)
	den     uint64 // bandwidth denominator (cycles)
	latency uint64 // pipeline latency after serialization, cycles

	arbiter arb.Arbiter
	queues  []ring.Buffer[queued]
	pipe    ring.Buffer[inflight] // FIFO: serialization end times are monotonic
	out     Deliver
	wake    func() // activity wake edge (see SetWaker); nil outside a scheduler

	// heads[i] is the front packet of queues[i], nil when that queue is
	// empty, and loaded counts the non-nil heads. Enqueue, the grant's Pop
	// and Restore keep both current, so an arbitration round hands the
	// arbiter heads without rescanning every queue. Derived state: never
	// encoded in a snapshot.
	heads  []*packet.Packet
	loaded int

	lastEnd uint64 // scaled (cycles*num) time the channel frees up
	stats   Stats
	pr      *linkProbes // nil when uninstrumented (the fast path)
}

// linkProbes bundles the probe instruments of one instrumented link; the
// Link carries a single pointer so the uninstrumented hot path pays exactly
// one nil check per phase.
type linkProbes struct {
	occ   *probe.Occupancy // channel utilization (busy units = flits*den)
	depth *probe.Gauge     // total queued packets across all inputs
	wait  *probe.Hist      // per-packet queue wait, cycles
	trace *probe.Trace     // nil unless tracing is enabled
	track probe.TrackID
}

// New constructs a link. inputs is the mux fan-in; rateNum/rateDen the
// bandwidth in flits per cycle; latency the pipeline delay in cycles applied
// after serialization. out must not be nil.
func New(name string, inputs, rateNum, rateDen, latency int, a arb.Arbiter, out Deliver) (*Link, error) {
	switch {
	case inputs <= 0:
		return nil, fmt.Errorf("link %s: non-positive input count %d", name, inputs)
	case rateNum <= 0 || rateDen <= 0:
		return nil, fmt.Errorf("link %s: non-positive rate %d/%d", name, rateNum, rateDen)
	case latency < 0:
		return nil, fmt.Errorf("link %s: negative latency %d", name, latency)
	case a == nil:
		return nil, fmt.Errorf("link %s: nil arbiter", name)
	case out == nil:
		return nil, fmt.Errorf("link %s: nil delivery sink", name)
	}
	return &Link{
		name:    name,
		num:     uint64(rateNum),
		den:     uint64(rateDen),
		latency: uint64(latency),
		arbiter: a,
		queues:  make([]ring.Buffer[queued], inputs),
		heads:   make([]*packet.Packet, inputs),
		out:     out,
	}, nil
}

// SetWaker registers the activity wake edge: w is invoked on every Enqueue,
// so the container that parked this link (because Idle() held) knows to tick
// it again. A nil waker (the default) leaves Enqueue unobserved — correct
// when the link is ticked exhaustively.
func (l *Link) SetWaker(w func()) { l.wake = w }

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Inputs returns the mux fan-in.
func (l *Link) Inputs() int { return len(l.queues) }

// Stats returns a copy of the activity counters.
func (l *Link) Stats() Stats { return l.stats }

// Instrument registers this link's metrics with r under prefix+Name() and
// wraps the arbiter with per-input grant/deny counters. It must be called
// before the first Tick and is a no-op on a nil registry, so uninstrumented
// runs keep the bare arbiter and a nil probe pointer (probe-freedom).
func (l *Link) Instrument(r *probe.Registry, prefix string) {
	if r == nil {
		return
	}
	base := prefix + l.name
	grants := make([]*probe.Counter, len(l.queues))
	denies := make([]*probe.Counter, len(l.queues))
	for i := range l.queues {
		grants[i] = r.Counter(fmt.Sprintf("%s/in%d/grants", base, i))
		denies[i] = r.Counter(fmt.Sprintf("%s/in%d/denies", base, i))
	}
	l.arbiter = arb.Counting(l.arbiter, grants, denies)
	l.pr = &linkProbes{
		occ:   r.Occupancy(base+"/occupancy", l.num),
		depth: r.Gauge(base + "/queue_depth"),
		wait:  r.Hist(base + "/queue_wait"),
	}
	if tr := r.Tracer(); tr != nil {
		l.pr.trace = tr
		l.pr.track = tr.Track(base)
	}
}

// Enqueue appends p to input queue in at cycle now. It panics on an invalid
// input index, which would indicate a miswired topology rather than a
// recoverable condition.
func (l *Link) Enqueue(now uint64, in int, p *packet.Packet) {
	if in < 0 || in >= len(l.queues) {
		panic(fmt.Sprintf("link %s: enqueue on input %d of %d", l.name, in, len(l.queues)))
	}
	q := &l.queues[in]
	q.Push(queued{p: p, enqueued: now})
	n := q.Len()
	if n == 1 {
		l.heads[in] = p
		l.loaded++
	}
	if n > l.stats.MaxQueueLen {
		l.stats.MaxQueueLen = n
	}
	if l.pr != nil {
		l.pr.depth.Add(1)
	}
	if l.wake != nil {
		l.wake()
	}
}

// QueueLen reports the occupancy of one input queue (tests and debugging).
func (l *Link) QueueLen(in int) int { return l.queues[in].Len() }

// Idle reports whether the link holds no queued or in-flight packets. An
// idle link's Tick is a no-op, so the scheduler may park it until the next
// Enqueue.
func (l *Link) Idle() bool { return l.pipe.Len() == 0 && l.loaded == 0 }

// Tick advances the link by one cycle: due packets are delivered downstream,
// then as many new grants as the channel bandwidth allows within this cycle
// are issued. Tick must be called with strictly increasing cycle numbers.
func (l *Link) Tick(now uint64) {
	// Phase 1: delivery. The pipe is FIFO because serialization-end times
	// are monotonic.
	for l.pipe.Len() > 0 && l.pipe.Front().deliverAt <= now {
		f := l.pipe.Pop()
		l.out(now, f.p)
	}

	// Phase 2: arbitration and serialization. The channel becomes free at
	// scaled time lastEnd; grants may start any time within [now, now+1).
	nowScaled := now * l.num
	if l.lastEnd < nowScaled {
		l.lastEnd = nowScaled // bandwidth does not accumulate while idle
	}
	end := (now + 1) * l.num
	for l.lastEnd < end && l.loaded > 0 {
		g := l.arbiter.Grant(now, l.heads)
		if g < 0 {
			return // SRR idle slot: bandwidth burns, nothing moves
		}
		q := &l.queues[g]
		item := q.Pop()
		if q.Len() > 0 {
			l.heads[g] = q.Front().p
		} else {
			l.heads[g] = nil
			l.loaded--
		}

		flits := uint64(item.p.Flits())
		l.lastEnd += flits * l.den
		// Serialization finishes at ceil(lastEnd/num) cycles.
		doneCycle := (l.lastEnd + l.num - 1) / l.num
		l.pipe.Push(inflight{p: item.p, deliverAt: doneCycle + l.latency})

		l.stats.Packets++
		l.stats.Flits += flits
		l.stats.QueueWait += now - item.enqueued

		if l.pr != nil {
			l.pr.occ.AddBusy(flits * l.den)
			l.pr.wait.Observe(now - item.enqueued)
			l.pr.depth.Add(-1)
			if l.pr.trace != nil {
				l.pr.trace.Span(l.pr.track, item.p.Kind.String(), item.enqueued, doneCycle+l.latency)
			}
		}
	}
}
