package link

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/arb"
	"gpunoc/internal/config"
	"gpunoc/internal/packet"
)

type capture struct {
	pkts  []*packet.Packet
	times []uint64
}

func (c *capture) deliver(now uint64, p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, now)
}

func newRR(t testing.TB, n int) arb.Arbiter {
	t.Helper()
	a, err := arb.New(config.ArbRR, n, 32, packet.DataFlits)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mkPacket(id uint64, k packet.Kind) *packet.Packet {
	return &packet.Packet{ID: id, Kind: k, Tag: packet.WarpTag{SM: 0, Warp: 0, Op: id}}
}

func TestNewValidation(t *testing.T) {
	a := newRR(t, 2)
	sink := func(uint64, *packet.Packet) {}
	cases := []struct {
		name                  string
		inputs, num, den, lat int
		arbiter               arb.Arbiter
		out                   Deliver
	}{
		{"inputs", 0, 1, 1, 0, a, sink},
		{"ratenum", 2, 0, 1, 0, a, sink},
		{"rateden", 2, 1, 0, 0, a, sink},
		{"latency", 2, 1, 1, -1, a, sink},
		{"arbiter", 2, 1, 1, 0, nil, sink},
		{"sink", 2, 1, 1, 0, a, nil},
	}
	for _, c := range cases {
		if _, err := New("bad", c.inputs, c.num, c.den, c.lat, c.arbiter, c.out); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	l, err := New("ok", 2, 1, 1, 3, a, sink)
	if err != nil || l.Name() != "ok" || l.Inputs() != 2 {
		t.Fatalf("valid link rejected: %v", err)
	}
}

// TestSinglePacketLatency pins the unloaded delivery time: serialization of
// F flits at rate 1 plus pipeline latency.
func TestSinglePacketLatency(t *testing.T) {
	var c capture
	l, err := New("l", 1, 1, 1, 5, newRR(t, 1), c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	p := mkPacket(1, packet.WriteReq) // 4 flits
	l.Enqueue(10, 0, p)
	for now := uint64(10); now < 40 && len(c.pkts) == 0; now++ {
		l.Tick(now)
	}
	if len(c.pkts) != 1 {
		t.Fatal("packet never delivered")
	}
	// Granted at cycle 10, serialization ends at 14, +5 latency = 19.
	if c.times[0] != 19 {
		t.Errorf("delivered at %d, want 19", c.times[0])
	}
}

// TestThroughputAtRate checks a saturated rate-1 link moves exactly one flit
// per cycle over a long window.
func TestThroughputAtRate(t *testing.T) {
	var c capture
	l, err := New("l", 1, 1, 1, 0, newRR(t, 1), c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		l.Enqueue(0, 0, mkPacket(uint64(i), packet.WriteReq))
	}
	for now := uint64(0); now < 1000 && !l.Idle(); now++ {
		l.Tick(now)
	}
	st := l.Stats()
	if st.Packets != 100 || st.Flits != 400 {
		t.Fatalf("stats = %+v", st)
	}
	// 400 flits at 1 flit/cycle: the last delivery is at cycle ~400.
	last := c.times[len(c.times)-1]
	if last < 395 || last > 405 {
		t.Errorf("last delivery at %d, want ~400", last)
	}
}

// TestFractionalRate verifies the scaled-integer serialization: at rate 3/2
// flits per cycle, 300 one-flit packets take ~200 cycles.
func TestFractionalRate(t *testing.T) {
	var c capture
	l, err := New("l", 1, 3, 2, 0, newRR(t, 1), c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		l.Enqueue(0, 0, mkPacket(uint64(i), packet.ReadReq))
	}
	for now := uint64(0); now < 1000 && !l.Idle(); now++ {
		l.Tick(now)
	}
	last := c.times[len(c.times)-1]
	if last < 198 || last > 203 {
		t.Errorf("last delivery at %d, want ~200", last)
	}
}

// TestRateAboveOne verifies multiple grants can start within one cycle on a
// fast link (e.g. the 6-flit/cycle GPC request channel).
func TestRateAboveOne(t *testing.T) {
	var c capture
	l, err := New("l", 1, 6, 1, 0, newRR(t, 1), c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l.Enqueue(0, 0, mkPacket(uint64(i), packet.ReadReq))
	}
	l.Tick(0)
	l.Tick(1)
	if len(c.pkts) != 6 {
		t.Fatalf("delivered %d packets after 2 cycles, want 6", len(c.pkts))
	}
}

// TestNoIdleBandwidthBanking: a link idle for many cycles must not burst
// beyond its rate when traffic arrives.
func TestNoIdleBandwidthBanking(t *testing.T) {
	var c capture
	l, err := New("l", 1, 1, 1, 0, newRR(t, 1), c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	for now := uint64(0); now < 100; now++ {
		l.Tick(now) // idle spin
	}
	for i := 0; i < 4; i++ {
		l.Enqueue(100, 0, mkPacket(uint64(i), packet.WriteReq))
	}
	for now := uint64(100); now < 130; now++ {
		l.Tick(now)
	}
	// 16 flits at rate 1 starting at cycle 100: deliveries at 104..116,
	// never earlier.
	if c.times[0] < 104 {
		t.Errorf("first delivery at %d, too early", c.times[0])
	}
	if last := c.times[len(c.times)-1]; last < 115 {
		t.Errorf("last delivery at %d, burst exceeded rate", last)
	}
}

// TestTwoInputContention reproduces the covert-channel mechanism in
// miniature: input 0's packets take twice as long to drain when input 1 is
// also loaded.
func TestTwoInputContention(t *testing.T) {
	drain := func(withContender bool) uint64 {
		var c capture
		a, _ := arb.New(config.ArbRR, 2, 32, packet.DataFlits)
		l, err := New("tpc", 2, 1, 1, 0, a, c.deliver)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		for i := 0; i < n; i++ {
			l.Enqueue(0, 0, &packet.Packet{ID: uint64(i), Kind: packet.WriteReq, Tag: packet.WarpTag{SM: 0}})
			if withContender {
				l.Enqueue(0, 1, &packet.Packet{ID: uint64(1000 + i), Kind: packet.WriteReq, Tag: packet.WarpTag{SM: 1}})
			}
		}
		var lastSM0 uint64
		for now := uint64(0); !l.Idle(); now++ {
			l.Tick(now)
		}
		for i, p := range c.pkts {
			if p.Tag.SM == 0 {
				lastSM0 = c.times[i]
			}
		}
		return lastSM0
	}
	alone := drain(false)
	shared := drain(true)
	ratio := float64(shared) / float64(alone)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("contention ratio = %.2f, want ~2.0 (alone=%d shared=%d)", ratio, alone, shared)
	}
}

// TestSRRIsolation pins the countermeasure: input 0's drain time under SRR
// is the same whether or not input 1 sends.
func TestSRRIsolation(t *testing.T) {
	drain := func(withContender bool) uint64 {
		var c capture
		a, _ := arb.New(config.ArbSRR, 2, 32, packet.DataFlits)
		l, err := New("tpc", 2, 1, 1, 0, a, c.deliver)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		for i := 0; i < n; i++ {
			l.Enqueue(0, 0, &packet.Packet{ID: uint64(i), Kind: packet.WriteReq, Tag: packet.WarpTag{SM: 0}})
			if withContender {
				l.Enqueue(0, 1, &packet.Packet{ID: uint64(1000 + i), Kind: packet.WriteReq, Tag: packet.WarpTag{SM: 1}})
			}
		}
		var lastSM0 uint64
		for now := uint64(0); !l.Idle(); now++ {
			l.Tick(now)
		}
		for i, p := range c.pkts {
			if p.Tag.SM == 0 {
				lastSM0 = c.times[i]
			}
		}
		return lastSM0
	}
	alone := drain(false)
	shared := drain(true)
	diff := float64(shared) - float64(alone)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(alone) > 0.02 {
		t.Errorf("SRR leaked contention: alone=%d shared=%d", alone, shared)
	}
}

func TestEnqueuePanicsOnBadInput(t *testing.T) {
	l, err := New("l", 1, 1, 1, 0, newRR(t, 1), func(uint64, *packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad input index")
		}
	}()
	l.Enqueue(0, 5, mkPacket(0, packet.ReadReq))
}

func TestQueueWaitAccounting(t *testing.T) {
	var c capture
	l, err := New("l", 1, 1, 1, 0, newRR(t, 1), c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	l.Enqueue(0, 0, mkPacket(0, packet.ReadReq)) // granted at 0: wait 0
	l.Enqueue(0, 0, mkPacket(1, packet.ReadReq)) // granted at 1: wait 1
	for now := uint64(0); !l.Idle(); now++ {
		l.Tick(now)
	}
	if st := l.Stats(); st.QueueWait != 1 {
		t.Errorf("QueueWait = %d, want 1", st.QueueWait)
	}
	if l.QueueLen(0) != 0 {
		t.Error("queue not drained")
	}
}

// Property: flit conservation — everything enqueued is eventually delivered
// exactly once, for arbitrary packet mixes and input assignments.
func TestQuickFlitConservation(t *testing.T) {
	f := func(kinds []uint8) bool {
		if len(kinds) > 200 {
			kinds = kinds[:200]
		}
		var c capture
		a, err := arb.New(config.ArbRR, 3, 32, packet.DataFlits)
		if err != nil {
			return false
		}
		l, err := New("l", 3, 2, 1, 1, a, c.deliver)
		if err != nil {
			return false
		}
		wantFlits := 0
		for i, kraw := range kinds {
			k := packet.Kind(kraw % 6)
			wantFlits += packet.FlitsFor(k)
			l.Enqueue(0, i%3, mkPacket(uint64(i), k))
		}
		for now := uint64(0); now < 100000 && !l.Idle(); now++ {
			l.Tick(now)
		}
		if !l.Idle() {
			return false
		}
		st := l.Stats()
		return len(c.pkts) == len(kinds) && st.Flits == uint64(wantFlits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: deliveries are monotone in time (the FIFO pipe assumption).
func TestQuickMonotoneDelivery(t *testing.T) {
	f := func(kinds []uint8, rate uint8) bool {
		if len(kinds) > 100 {
			kinds = kinds[:100]
		}
		num := int(rate%5) + 1
		var c capture
		a, err := arb.New(config.ArbRR, 2, 32, packet.DataFlits)
		if err != nil {
			return false
		}
		l, err := New("l", 2, num, 2, 3, a, c.deliver)
		if err != nil {
			return false
		}
		for i, kraw := range kinds {
			l.Enqueue(uint64(i), i%2, mkPacket(uint64(i), packet.Kind(kraw%6)))
			l.Tick(uint64(i))
		}
		for now := uint64(len(kinds)); now < 100000 && !l.Idle(); now++ {
			l.Tick(now)
		}
		for i := 1; i < len(c.times); i++ {
			if c.times[i] < c.times[i-1] {
				return false
			}
		}
		return l.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMaxQueueLenTracking: the high-water mark reflects the deepest input
// backlog.
func TestMaxQueueLenTracking(t *testing.T) {
	l, err := New("l", 2, 1, 1, 0, newRR(t, 2), func(uint64, *packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Enqueue(0, 0, mkPacket(uint64(i), packet.ReadReq))
	}
	l.Enqueue(0, 1, mkPacket(99, packet.ReadReq))
	if st := l.Stats(); st.MaxQueueLen != 5 {
		t.Errorf("MaxQueueLen = %d, want 5", st.MaxQueueLen)
	}
	if l.QueueLen(0) != 5 || l.QueueLen(1) != 1 {
		t.Errorf("queue lengths %d/%d", l.QueueLen(0), l.QueueLen(1))
	}
}

// TestAgeArbitrationAcrossInputs: with age-based arbitration the oldest
// packet wins regardless of which input holds it.
func TestAgeArbitrationAcrossInputs(t *testing.T) {
	var c capture
	a, err := arb.New(config.ArbAge, 2, 32, packet.DataFlits)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New("l", 2, 1, 1, 0, a, c.deliver)
	if err != nil {
		t.Fatal(err)
	}
	young := mkPacket(1, packet.ReadReq)
	young.IssueCycle = 50
	old := mkPacket(2, packet.ReadReq)
	old.IssueCycle = 10
	l.Enqueue(0, 0, young)
	l.Enqueue(0, 1, old)
	for now := uint64(0); !l.Idle(); now++ {
		l.Tick(now)
	}
	if len(c.pkts) != 2 || c.pkts[0].ID != 2 {
		t.Errorf("delivery order: %v, want the older packet first", c.pkts)
	}
}

// TestTickDoesNotAllocate pins the hot path at zero heap allocations: an
// idle link's Tick must allocate nothing, and neither must a steady-state
// tick that grants a queued packet and delivers a due one. Ring buffers
// reach steady capacity after warmup; regressing this (e.g. by slicing a
// queue's backing array per pop) shows up immediately as a nonzero count.
func TestTickDoesNotAllocate(t *testing.T) {
	l, err := New("alloc", 2, 1, 1, 2, newRR(t, 2), func(uint64, *packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}

	now := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		l.Tick(now)
		now++
	}); n != 0 {
		t.Errorf("idle Tick allocates %v times per call, want 0", n)
	}

	// Warm up the rings past their steady-state capacity, then drain.
	p := mkPacket(1, packet.ReadReq)
	for i := 0; i < 32; i++ {
		l.Enqueue(now, i%2, p)
	}
	for !l.Idle() {
		l.Tick(now)
		now++
	}

	// Steady state: one enqueue and one tick per cycle. Every allocation
	// here would be on the per-granted-packet path.
	if n := testing.AllocsPerRun(100, func() {
		l.Enqueue(now, 0, p)
		l.Tick(now)
		now++
	}); n != 0 {
		t.Errorf("steady-state Enqueue+Tick allocates %v times per call, want 0", n)
	}
}
