package link

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpunoc/internal/arb"
	"gpunoc/internal/config"
	"gpunoc/internal/packet"
	"gpunoc/internal/snap"
)

// rescanTick is the arbitration loop without head-of-line bookkeeping: it
// rebuilds heads by scanning every input queue before each grant, reading
// none of the link's derived heads/loaded state. It is the reference the
// incremental Tick must match delivery for delivery.
func rescanTick(l *Link, heads []*packet.Packet, now uint64) {
	for l.pipe.Len() > 0 && l.pipe.Front().deliverAt <= now {
		f := l.pipe.Pop()
		l.out(now, f.p)
	}
	nowScaled := now * l.num
	if l.lastEnd < nowScaled {
		l.lastEnd = nowScaled
	}
	for l.lastEnd < (now+1)*l.num {
		loaded := false
		for i := range l.queues {
			heads[i] = nil
			if l.queues[i].Len() > 0 {
				heads[i] = l.queues[i].Front().p
				loaded = true
			}
		}
		if !loaded {
			return
		}
		g := l.arbiter.Grant(now, heads)
		if g < 0 {
			return
		}
		item := l.queues[g].Pop()
		flits := uint64(item.p.Flits())
		l.lastEnd += flits * l.den
		doneCycle := (l.lastEnd + l.num - 1) / l.num
		l.pipe.Push(inflight{p: item.p, deliverAt: doneCycle + l.latency})
		l.stats.Packets++
		l.stats.Flits += flits
		l.stats.QueueWait += now - item.enqueued
	}
}

// delivery is one packet leaving a link, identified by value so packets
// decoded by Restore compare equal to the originals.
type delivery struct {
	at, id uint64
}

// loopLink is a link whose sink records deliveries and sends every fifth
// packet back into the link once, so Enqueue also runs from inside Tick's
// delivery phase.
type loopLink struct {
	l    *Link
	got  []delivery
	sent map[uint64]bool
}

func newLoopLink(t *testing.T, policy config.ArbPolicy, inputs int) *loopLink {
	t.Helper()
	a, err := arb.New(policy, inputs, 3, packet.DataFlits)
	if err != nil {
		t.Fatal(err)
	}
	ll := &loopLink{sent: map[uint64]bool{}}
	ll.l, err = New("eq", inputs, 7, 3, 2, a, func(now uint64, p *packet.Packet) {
		ll.got = append(ll.got, delivery{at: now, id: p.ID})
		if p.ID%5 == 0 && !ll.sent[p.ID] {
			ll.sent[p.ID] = true
			ll.l.Enqueue(now, int(p.ID/5)%inputs, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return ll
}

// checkHeads verifies the head-of-line invariant against the queues.
func checkHeads(l *Link) error {
	loaded := 0
	for i := range l.queues {
		var want *packet.Packet
		if l.queues[i].Len() > 0 {
			want = l.queues[i].Front().p
			loaded++
		}
		if l.heads[i] != want {
			return fmt.Errorf("heads[%d] = %v, queue front %v", i, l.heads[i], want)
		}
	}
	if l.loaded != loaded {
		return fmt.Errorf("loaded = %d, %d queues non-empty", l.loaded, loaded)
	}
	return nil
}

func snapshotBytes(l *Link) []byte {
	e := snap.NewEncoder()
	l.Snapshot(e)
	return e.Finish(0)
}

// TestHeadBookkeepingMatchesRescan drives bursty random multi-input traffic
// through the incremental link and the rescan reference under all five
// policies, and requires identical deliveries (order and cycle), Stats and
// Snapshot bytes. Midway through a backlog the incremental link is
// snapshotted and restored into a fresh link, which carries on in its place.
func TestHeadBookkeepingMatchesRescan(t *testing.T) {
	const inputs, cycles, restoreAt = 5, 3000, 1350
	policies := []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR, config.ArbAge, config.ArbFixed}
	kinds := []packet.Kind{packet.ReadReq, packet.WriteReq, packet.AtomicReq, packet.ReadReply}
	for _, policy := range policies {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			inc := newLoopLink(t, policy, inputs)
			ref := newLoopLink(t, policy, inputs)
			refHeads := make([]*packet.Packet, inputs)
			restored := false
			var id uint64
			for now := uint64(0); now < cycles; now++ {
				// Alternate overload and silence so queues fill, drain
				// empty and refill (the empty<->non-empty transitions).
				load := 0.9
				if (now/200)%2 == 1 {
					load = 0.05
				}
				for in := 0; in < inputs; in++ {
					if rng.Float64() >= load/float64(in+1) {
						continue
					}
					id++
					p := &packet.Packet{
						ID:         id,
						Kind:       kinds[rng.Intn(len(kinds))],
						Tag:        packet.WarpTag{SM: in, Warp: rng.Intn(2), Op: uint64(rng.Intn(3))},
						IssueCycle: now - uint64(rng.Intn(int(now)+1)),
					}
					inc.l.Enqueue(now, in, p)
					ref.l.Enqueue(now, in, p)
				}
				if now == restoreAt {
					if inc.l.pipe.Len() == 0 || inc.l.loaded == 0 {
						t.Fatalf("%v seed %d: no backlog at the restore point", policy, seed)
					}
					blob := snapshotBytes(inc.l)
					if !bytes.Equal(blob, snapshotBytes(ref.l)) {
						t.Fatalf("%v seed %d: snapshot bytes differ from the reference before restore", policy, seed)
					}
					fresh := newLoopLink(t, policy, inputs)
					d, err := snap.NewDecoder(blob, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := fresh.l.Restore(d); err != nil {
						t.Fatalf("%v seed %d: restore: %v", policy, seed, err)
					}
					fresh.got, fresh.sent = inc.got, inc.sent
					inc, restored = fresh, true
				}
				inc.l.Tick(now)
				rescanTick(ref.l, refHeads, now)
				if err := checkHeads(inc.l); err != nil {
					t.Fatalf("%v seed %d cycle %d: %v", policy, seed, now, err)
				}
			}
			if !restored {
				t.Fatalf("%v seed %d: restore point never reached", policy, seed)
			}
			if len(inc.got) != len(ref.got) {
				t.Fatalf("%v seed %d: %d deliveries, reference %d", policy, seed, len(inc.got), len(ref.got))
			}
			for i := range inc.got {
				if inc.got[i] != ref.got[i] {
					t.Fatalf("%v seed %d: delivery %d = %+v, reference %+v", policy, seed, i, inc.got[i], ref.got[i])
				}
			}
			if inc.l.Stats() != ref.l.Stats() {
				t.Errorf("%v seed %d: stats %+v, reference %+v", policy, seed, inc.l.Stats(), ref.l.Stats())
			}
			if !bytes.Equal(snapshotBytes(inc.l), snapshotBytes(ref.l)) {
				t.Errorf("%v seed %d: snapshot bytes differ from the reference", policy, seed)
			}
		}
	}
}
