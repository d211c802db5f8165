// Package arb implements the mux arbitration policies studied in the paper:
// the baseline locally-fair round-robin (RR), coarse-grain round-robin (CRR,
// per-warp granting), the strict round-robin countermeasure (SRR, temporal
// partitioning of slots regardless of demand, §6), age-based arbitration, and
// a fixed-priority reference. Arbiters are used by every shared link in the
// NoC; swapping RR for SRR is what disables the covert channel in Fig 15.
package arb

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
)

// Arbiter selects which input of a shared mux is granted next. Grant is
// called at each grant opportunity (when the downstream link is free) with
// the head packet of every input queue (nil when that input is empty). It
// returns the granted input index, or -1 when no grant is issued this cycle
// (possible under SRR, whose slots are statically owned).
type Arbiter interface {
	Grant(now uint64, heads []*packet.Packet) int
	// Policy reports the policy this arbiter implements.
	Policy() config.ArbPolicy
}

// New builds an arbiter for n inputs under the given policy. crrHold bounds
// how many packets a CRR grant may hold for one warp; srrSlot is the strict
// round-robin slot length in cycles (use packet.DataFlits to give every
// owner time to serialize a data packet).
func New(policy config.ArbPolicy, n, crrHold, srrSlot int) (Arbiter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("arb: non-positive input count %d", n)
	}
	switch policy {
	case config.ArbRR:
		return &roundRobin{n: n, last: n - 1}, nil
	case config.ArbCRR:
		if crrHold <= 0 {
			return nil, fmt.Errorf("arb: non-positive CRR hold limit %d", crrHold)
		}
		return &coarseRR{rr: roundRobin{n: n, last: n - 1}, holdLimit: crrHold}, nil
	case config.ArbSRR:
		if srrSlot <= 0 {
			return nil, fmt.Errorf("arb: non-positive SRR slot length %d", srrSlot)
		}
		return &strictRR{n: n, slot: uint64(srrSlot)}, nil
	case config.ArbAge:
		return &ageBased{}, nil
	case config.ArbFixed:
		return &fixedPriority{}, nil
	default:
		return nil, fmt.Errorf("arb: unknown policy %v", policy)
	}
}

// roundRobin grants the next requesting input after the previously granted
// one. It is work-conserving: whenever any input has a packet, a grant is
// issued. This local fairness is exactly what leaks contention (§4.2).
type roundRobin struct {
	n    int
	last int
}

func (a *roundRobin) Policy() config.ArbPolicy { return config.ArbRR }

// Grant scans last+1..n-1 and then 0..last, the same cyclic order as
// (last+i)%n for i in 1..n without a division per probe. last stays in
// [0,n): New sets n-1, grants set a valid index, and Restore rejects
// anything else.
func (a *roundRobin) Grant(_ uint64, heads []*packet.Packet) int {
	for i := a.last + 1; i < a.n; i++ {
		if heads[i] != nil {
			a.last = i
			return i
		}
	}
	for i := 0; i <= a.last; i++ {
		if heads[i] != nil {
			a.last = i
			return i
		}
	}
	return -1
}

// coarseRR arbitrates per warp rather than per packet: once an input is
// granted, the grant is held while its head packet belongs to the same warp
// memory operation, up to holdLimit packets. The paper shows this
// network-coalescing does NOT remove the covert channel (Fig 15) because the
// total channel occupancy is unchanged.
type coarseRR struct {
	rr        roundRobin
	holdLimit int

	holding  bool
	heldIn   int
	heldTag  packet.WarpTag
	heldUsed int
}

func (a *coarseRR) Policy() config.ArbPolicy { return config.ArbCRR }

func (a *coarseRR) Grant(now uint64, heads []*packet.Packet) int {
	if a.holding {
		h := heads[a.heldIn]
		if h != nil && h.Tag == a.heldTag && a.heldUsed < a.holdLimit {
			a.heldUsed++
			return a.heldIn
		}
		a.holding = false
	}
	idx := a.rr.Grant(now, heads)
	if idx < 0 {
		return -1
	}
	a.holding = true
	a.heldIn = idx
	a.heldTag = heads[idx].Tag
	a.heldUsed = 1
	return idx
}

// strictRR statically assigns time slots to inputs: during input i's slot
// only input i may be granted, even if it has nothing to send. The unused
// bandwidth of an idle sender is therefore invisible to the other input,
// which removes the covert channel at the cost of up to n-fold bandwidth
// loss for a lone memory-intensive kernel (§6).
type strictRR struct {
	n    int
	slot uint64
}

func (a *strictRR) Policy() config.ArbPolicy { return config.ArbSRR }

func (a *strictRR) Grant(now uint64, heads []*packet.Packet) int {
	owner := int(now/a.slot) % a.n
	if heads[owner] != nil {
		return owner
	}
	return -1
}

// Owner reports which input owns the slot at the given cycle; exposed for
// tests and the Fig 15 analysis.
func (a *strictRR) Owner(now uint64) int { return int(now/a.slot) % a.n }

// ageBased grants the oldest packet (smallest issue cycle). Globally fair,
// but contending packets generated at similar times have similar ages, so it
// does not mitigate the covert channel (§6).
type ageBased struct{}

func (a *ageBased) Policy() config.ArbPolicy { return config.ArbAge }

func (a *ageBased) Grant(_ uint64, heads []*packet.Packet) int {
	best := -1
	for i, h := range heads {
		if h == nil {
			continue
		}
		if best == -1 || h.IssueCycle < heads[best].IssueCycle ||
			(h.IssueCycle == heads[best].IssueCycle && i < best) {
			best = i
		}
	}
	return best
}

// fixedPriority always grants the lowest-numbered requesting input. Used as
// a starvation-prone reference point in tests.
type fixedPriority struct{}

func (a *fixedPriority) Policy() config.ArbPolicy { return config.ArbFixed }

func (a *fixedPriority) Grant(_ uint64, heads []*packet.Packet) int {
	for i, h := range heads {
		if h != nil {
			return i
		}
	}
	return -1
}

// counting wraps an arbiter and attributes every grant opportunity to
// per-input probe counters: the granted input's grant counter increments,
// and every other input that had a head packet but was passed over counts a
// deny. Denies are exactly the cycles a queue head waits because a shared
// mux is serving someone else — the paper's leakage signal, localized per
// input.
type counting struct {
	inner  Arbiter
	grants []*probe.Counter
	denies []*probe.Counter
}

// Counting instruments a with per-input grant/deny counters. grants and
// denies must each have one counter per mux input (probe.Registry hands out
// nil counters when instrumentation is disabled; those stay no-ops). The
// wrapper preserves the inner arbiter's policy and decisions exactly.
func Counting(a Arbiter, grants, denies []*probe.Counter) Arbiter {
	return &counting{inner: a, grants: grants, denies: denies}
}

func (a *counting) Policy() config.ArbPolicy { return a.inner.Policy() }

func (a *counting) Grant(now uint64, heads []*packet.Packet) int {
	g := a.inner.Grant(now, heads)
	for i, h := range heads {
		if h == nil || i >= len(a.denies) {
			continue
		}
		if i == g {
			a.grants[i].Inc()
		} else {
			a.denies[i].Inc()
		}
	}
	return g
}
