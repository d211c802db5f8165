package warp

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCoalesceValidation(t *testing.T) {
	op := CoalescedOp(0, false)
	if _, err := Coalesce(op, 0, 32); err == nil {
		t.Error("zero SIMT width should fail")
	}
	if _, err := Coalesce(op, 32, 48); err == nil {
		t.Error("non-power-of-two line should fail")
	}
	bad := op
	bad.Lanes = 64
	if _, err := Coalesce(bad, 32, 32); err == nil {
		t.Error("too many lanes should fail")
	}
	bad.Lanes = -2
	if _, err := Coalesce(bad, 32, 32); err == nil {
		t.Error("negative lanes should fail")
	}
	none := op
	none.Lanes = LanesNone
	if lines, err := Coalesce(none, 32, 32); err != nil || len(lines) != 0 {
		t.Errorf("LanesNone = %v, %v; want empty", lines, err)
	}
}

// TestFullyCoalesced pins §5: stride 0 (or small strides within one line)
// produce exactly one request per warp.
func TestFullyCoalesced(t *testing.T) {
	lines, err := Coalesce(CoalescedOp(0x1000, true), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != 0x1000 {
		t.Errorf("coalesced op = %v, want [0x1000]", lines)
	}
}

// TestFullyUncoalesced pins §5: a line-stride op produces 32 requests, one
// per lane, on consecutive lines.
func TestFullyUncoalesced(t *testing.T) {
	lines, err := Coalesce(UncoalescedOp(0x2000, false, 32), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 32 {
		t.Fatalf("uncoalesced op produced %d lines, want 32", len(lines))
	}
	for i, la := range lines {
		if want := uint64(0x2000 + i*32); la != want {
			t.Fatalf("line %d = %#x, want %#x", i, la, want)
		}
	}
}

// TestWordStrideCoalescing: 4-byte strides over 32-byte lines pack 8 lanes
// per line, giving 4 requests.
func TestWordStrideCoalescing(t *testing.T) {
	op := MemOp{Base: 0, StrideBytes: 4}
	lines, err := Coalesce(op, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Errorf("4-byte stride = %d lines, want 4", len(lines))
	}
}

// TestPartialOp covers the multi-level channel request counts (0/8/16/32).
func TestPartialOp(t *testing.T) {
	for _, n := range []int{0, 8, 16, 32} {
		op, err := PartialOp(0, true, 32, n, 32)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := Coalesce(op, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != n {
			t.Errorf("PartialOp(%d) = %d lines", n, len(lines))
		}
	}
	if _, err := PartialOp(0, true, 32, 33, 32); err == nil {
		t.Error("uniqueLines > SIMT width should fail")
	}
	if _, err := PartialOp(0, true, 32, -1, 32); err == nil {
		t.Error("negative uniqueLines should fail")
	}
}

func TestUnalignedBaseStillLineAligned(t *testing.T) {
	op := MemOp{Base: 0x1007, StrideBytes: 32}
	lines, err := Coalesce(op, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, la := range lines {
		if la%32 != 0 {
			t.Fatalf("line %#x not aligned", la)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Ready: "ready", WaitingMem: "waiting-mem", WaitingCycle: "waiting-cycle",
		Finished: "finished", State(7): "State(7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// Property: the coalescer never emits more lines than active lanes, never
// more than lanes distinct lines exist, all results are line-aligned and
// unique.
func TestQuickCoalesceInvariants(t *testing.T) {
	f := func(base uint64, stride uint16, lanesRaw uint8) bool {
		lanes := int(lanesRaw) % 33
		if lanes == 0 {
			lanes = 32
		}
		op := MemOp{Base: base % (1 << 40), StrideBytes: uint64(stride), Lanes: lanes}
		lines, err := Coalesce(op, 32, 32)
		if err != nil {
			return false
		}
		if len(lines) > lanes {
			return false
		}
		seen := make(map[uint64]bool)
		for _, la := range lines {
			if la%32 != 0 || seen[la] {
				return false
			}
			seen[la] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: line-stride ops always produce exactly one line per active lane.
func TestQuickLineStrideBijective(t *testing.T) {
	f := func(base uint64, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%32 + 1
		op := MemOp{Base: base % (1 << 40), StrideBytes: 32, Lanes: lanes}
		lines, err := Coalesce(op, 32, 32)
		return err == nil && len(lines) == lanes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapCoalesce is the map-based coalescer CoalesceInto replaced: lane order,
// first occurrence kept, duplicates found through a set.
func mapCoalesce(op MemOp, simtWidth, lineBytes int) []uint64 {
	lanes := op.Lanes
	switch lanes {
	case LanesNone:
		return nil
	case 0:
		lanes = simtWidth
	}
	mask := ^uint64(lineBytes - 1)
	seen := make(map[uint64]struct{}, lanes)
	var lines []uint64
	for lane := 0; lane < lanes; lane++ {
		la := (op.Base + uint64(lane)*op.StrideBytes) & mask
		if _, ok := seen[la]; !ok {
			seen[la] = struct{}{}
			lines = append(lines, la)
		}
	}
	return lines
}

// TestCoalesceMatchesMapReference pins Coalesce's output, line for line, to
// the map-based coalescer for coalesced, uncoalesced, partial and
// overlapping-stride ops, including strides whose lanes revisit a line
// after touching others (so a duplicate is not always the previous line).
func TestCoalesceMatchesMapReference(t *testing.T) {
	partial8, err := PartialOp(0x4000, false, 32, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]MemOp{
		"coalesced":          CoalescedOp(0x1000, true),
		"uncoalesced":        UncoalescedOp(0x2000, false, 32),
		"partial-8":          partial8,
		"partial-lanes":      {Base: 0x3010, StrideBytes: 8, Lanes: 13},
		"word-stride":        {Base: 0, StrideBytes: 4},
		"overlap-48":         {Base: 0x10, StrideBytes: 48},
		"overlap-16-unalign": {Base: 0x1f, StrideBytes: 16},
		"alternating":        {Base: 0x40, StrideBytes: 1 << 63},
		"wrapping":           {Base: ^uint64(0) - 100, StrideBytes: 24},
		"none":               {Lanes: LanesNone},
	}
	for name, op := range ops {
		got, err := Coalesce(op, 32, 32)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := mapCoalesce(op, 32, 32); !slices.Equal(got, want) {
			t.Errorf("%s: Coalesce = %#x, want %#x", name, got, want)
		}
	}
	f := func(base, stride uint64, lanesRaw uint8, lineShift uint8) bool {
		op := MemOp{Base: base, StrideBytes: stride % 256, Lanes: int(lanesRaw) % 33}
		if lanesRaw&0x80 != 0 {
			op.StrideBytes = stride // huge strides wrap the address space
		}
		line := 1 << (lineShift % 8)
		got, err := Coalesce(op, 32, line)
		return err == nil && slices.Equal(got, mapCoalesce(op, 32, line))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCoalesceIntoDoesNotAllocate pins the SM's per-instruction path: with a
// caller-owned buffer, coalescing allocates nothing.
func TestCoalesceIntoDoesNotAllocate(t *testing.T) {
	dst := make([]uint64, 32)
	ops := []MemOp{
		UncoalescedOp(0x2000, false, 32),
		CoalescedOp(0x1000, true),
		{Base: 0x10, StrideBytes: 48},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			if _, err := CoalesceInto(dst, op, 32, 32); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("CoalesceInto allocated %.1f times per run, want 0", allocs)
	}
}

// TestCoalesceIntoRejectsShortBuffer: a destination shorter than the SIMT
// width could not hold an uncoalesced op's lines.
func TestCoalesceIntoRejectsShortBuffer(t *testing.T) {
	if _, err := CoalesceInto(make([]uint64, 31), CoalescedOp(0, false), 32, 32); err == nil {
		t.Error("31-entry destination for SIMT width 32 should fail")
	}
}
