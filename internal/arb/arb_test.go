package arb

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/config"
	"gpunoc/internal/packet"
)

func pk(sm, warp int, op, issue uint64) *packet.Packet {
	return &packet.Packet{
		Kind:       packet.WriteReq,
		Tag:        packet.WarpTag{SM: sm, Warp: warp, Op: op},
		IssueCycle: issue,
	}
}

func mustNew(t *testing.T, p config.ArbPolicy, n int) Arbiter {
	t.Helper()
	a, err := New(p, n, 32, packet.DataFlits)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(config.ArbRR, 0, 32, 4); err == nil {
		t.Error("zero inputs should fail")
	}
	if _, err := New(config.ArbCRR, 2, 0, 4); err == nil {
		t.Error("zero CRR hold should fail")
	}
	if _, err := New(config.ArbSRR, 2, 32, 0); err == nil {
		t.Error("zero SRR slot should fail")
	}
	if _, err := New(config.ArbPolicy(99), 2, 32, 4); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestPolicyReported(t *testing.T) {
	for _, p := range []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR, config.ArbAge, config.ArbFixed} {
		if got := mustNew(t, p, 2).Policy(); got != p {
			t.Errorf("Policy() = %v, want %v", got, p)
		}
	}
}

// TestRRAlternates verifies locally fair alternation between two loaded
// inputs — the behaviour the covert channel exploits.
func TestRRAlternates(t *testing.T) {
	a := mustNew(t, config.ArbRR, 2)
	heads := []*packet.Packet{pk(0, 0, 1, 0), pk(1, 0, 1, 0)}
	want := []int{0, 1, 0, 1, 0, 1}
	for i, w := range want {
		if got := a.Grant(uint64(i), heads); got != w {
			t.Fatalf("grant %d = %d, want %d", i, got, w)
		}
	}
}

func TestRRWorkConserving(t *testing.T) {
	a := mustNew(t, config.ArbRR, 4)
	heads := make([]*packet.Packet, 4)
	heads[2] = pk(2, 0, 1, 0)
	for i := 0; i < 10; i++ {
		if got := a.Grant(uint64(i), heads); got != 2 {
			t.Fatalf("lone requester not granted: %d", got)
		}
	}
	if got := a.Grant(0, make([]*packet.Packet, 4)); got != -1 {
		t.Fatalf("empty mux granted %d", got)
	}
}

// TestCRRHoldsWarp verifies the grant is held while the head packet belongs
// to the same warp operation.
func TestCRRHoldsWarp(t *testing.T) {
	a := mustNew(t, config.ArbCRR, 2)
	w0 := []*packet.Packet{pk(0, 0, 1, 0), pk(1, 0, 1, 0)}
	// First grant goes to input 0; subsequent packets of the same warp op
	// keep the grant even though input 1 is waiting.
	for i := 0; i < 5; i++ {
		if got := a.Grant(uint64(i), w0); got != 0 {
			t.Fatalf("grant %d = %d, want hold on 0", i, got)
		}
	}
	// When input 0's warp op changes, the grant rotates to input 1.
	w0[0] = pk(0, 0, 2, 5)
	if got := a.Grant(5, w0); got != 1 {
		t.Fatalf("grant after warp change = %d, want 1", got)
	}
}

func TestCRRHoldLimit(t *testing.T) {
	a, err := New(config.ArbCRR, 2, 3, packet.DataFlits)
	if err != nil {
		t.Fatal(err)
	}
	heads := []*packet.Packet{pk(0, 0, 1, 0), pk(1, 0, 1, 0)}
	got := make([]int, 8)
	for i := range got {
		got[i] = a.Grant(uint64(i), heads)
	}
	want := []int{0, 0, 0, 1, 1, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestCRRReleasesWhenInputEmpties(t *testing.T) {
	a := mustNew(t, config.ArbCRR, 2)
	heads := []*packet.Packet{pk(0, 0, 1, 0), pk(1, 0, 1, 0)}
	if a.Grant(0, heads) != 0 {
		t.Fatal("first grant should pick 0")
	}
	heads[0] = nil
	if got := a.Grant(1, heads); got != 1 {
		t.Fatalf("grant = %d, want rotation to 1 after input 0 emptied", got)
	}
}

// TestSRRTemporalPartitioning pins the countermeasure property: an input is
// granted only during its own slot, and an idle owner's slot is wasted
// rather than donated — so the other input cannot observe the idleness.
func TestSRRTemporalPartitioning(t *testing.T) {
	a := mustNew(t, config.ArbSRR, 2)
	slot := uint64(packet.DataFlits)
	// Only input 0 has traffic; it must be granted only in its own slots.
	heads := []*packet.Packet{pk(0, 0, 1, 0), nil}
	for now := uint64(0); now < 8*slot; now++ {
		got := a.Grant(now, heads)
		owner := int(now/slot) % 2
		if owner == 0 && got != 0 {
			t.Fatalf("cycle %d: owner 0 not granted (got %d)", now, got)
		}
		if owner == 1 && got != -1 {
			t.Fatalf("cycle %d: idle slot donated to input %d", now, got)
		}
	}
}

func TestSRROwnerRotation(t *testing.T) {
	a := mustNew(t, config.ArbSRR, 3).(*strictRR)
	slot := uint64(packet.DataFlits)
	for now := uint64(0); now < 9*slot; now += slot {
		want := int(now/slot) % 3
		if got := a.Owner(now); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", now, got, want)
		}
	}
}

func TestAgeBasedGrantsOldest(t *testing.T) {
	a := mustNew(t, config.ArbAge, 3)
	heads := []*packet.Packet{pk(0, 0, 1, 30), pk(1, 0, 1, 10), pk(2, 0, 1, 20)}
	if got := a.Grant(100, heads); got != 1 {
		t.Fatalf("grant = %d, want oldest (1)", got)
	}
	// Ties break toward the lowest input index.
	heads = []*packet.Packet{pk(0, 0, 1, 10), pk(1, 0, 1, 10)}
	if got := a.Grant(100, heads); got != 0 {
		t.Fatalf("tie grant = %d, want 0", got)
	}
	if got := a.Grant(100, make([]*packet.Packet, 3)); got != -1 {
		t.Fatalf("empty grant = %d", got)
	}
}

func TestFixedPriority(t *testing.T) {
	a := mustNew(t, config.ArbFixed, 3)
	heads := []*packet.Packet{nil, pk(1, 0, 1, 0), pk(2, 0, 1, 0)}
	if got := a.Grant(0, heads); got != 1 {
		t.Fatalf("grant = %d, want 1", got)
	}
	heads[0] = pk(0, 0, 1, 99)
	if got := a.Grant(1, heads); got != 0 {
		t.Fatalf("grant = %d, want 0 (starves others)", got)
	}
}

// Property: every work-conserving policy grants some loaded input whenever
// at least one input is loaded, and never grants an empty input. SRR is
// exempt from the first half (its idle slots burn bandwidth by design) but
// must still never grant an empty input.
func TestQuickGrantSoundness(t *testing.T) {
	policies := []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR, config.ArbAge, config.ArbFixed}
	for _, p := range policies {
		p := p
		a, err := New(p, 4, 8, packet.DataFlits)
		if err != nil {
			t.Fatal(err)
		}
		var now uint64
		f := func(mask uint8, issue0, issue1, issue2, issue3 uint16) bool {
			heads := make([]*packet.Packet, 4)
			issues := []uint16{issue0, issue1, issue2, issue3}
			loaded := false
			for i := 0; i < 4; i++ {
				if mask&(1<<i) != 0 {
					heads[i] = pk(i, 0, 1, uint64(issues[i]))
					loaded = true
				}
			}
			got := a.Grant(now, heads)
			now++
			if got >= 0 && heads[got] == nil {
				return false // granted an empty input
			}
			if got == -1 && loaded && p != config.ArbSRR {
				return false // work-conserving policy wasted a grant
			}
			if got == -1 && !loaded {
				return true
			}
			return got >= -1 && got < 4
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

// Property: under RR with both inputs always loaded, grants over any window
// of even length split exactly evenly — the local fairness the paper assumes.
func TestQuickRRFairness(t *testing.T) {
	f := func(n uint8) bool {
		rounds := int(n%64)*2 + 2
		a, err := New(config.ArbRR, 2, 8, 4)
		if err != nil {
			return false
		}
		heads := []*packet.Packet{pk(0, 0, 1, 0), pk(1, 0, 1, 0)}
		counts := [2]int{}
		for i := 0; i < rounds; i++ {
			counts[a.Grant(uint64(i), heads)]++
		}
		return counts[0] == counts[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the two-segment round-robin scan grants exactly what the modulo
// scan (last+i)%n for i in 1..n grants, and leaves the same last, for any
// fan-in, head pattern and starting position.
func TestQuickRRMatchesModuloScan(t *testing.T) {
	f := func(nRaw uint8, mask uint64, lastRaw uint8) bool {
		n := int(nRaw)%64 + 1
		last := int(lastRaw) % n
		heads := make([]*packet.Packet, n)
		for i := range heads {
			if mask&(1<<i) != 0 {
				heads[i] = pk(i, 0, 1, 0)
			}
		}
		want, wantLast := -1, last
		for i := 1; i <= n; i++ {
			if idx := (last + i) % n; heads[idx] != nil {
				want, wantLast = idx, idx
				break
			}
		}
		a := &roundRobin{n: n, last: last}
		return a.Grant(0, heads) == want && a.last == wantLast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
