// Package warp models SIMT warps and the memory-access coalescer. A warp
// executes one memory operation across its (up to 32) active lanes; the
// coalescer merges lane addresses that fall into the same cache line into a
// single memory request. §5 of the paper shows the covert channel depends
// critically on this stage: a fully-coalesced sender emits one packet per
// warp and cannot create reliable contention (error > 50%), while an
// uncoalesced sender emits 32 packets and drives the error rate to ~0.1%.
package warp

import (
	"fmt"
)

// LanesNone marks a MemOp with no active lanes (zero requests).
const LanesNone = -1

// MemOp describes one warp-level memory instruction.
type MemOp struct {
	Write  bool
	Atomic bool
	// Base is the address accessed by lane 0.
	Base uint64
	// StrideBytes separates consecutive lanes' addresses. A stride equal
	// to the cache line size makes every lane touch a distinct line
	// (fully uncoalesced, 32 requests); a stride of 4 bytes packs eight
	// lanes per 32-byte line (mostly coalesced).
	StrideBytes uint64
	// Lanes is the number of active lanes; 0 means all SIMT lanes and
	// LanesNone means no lane is active (the op issues no requests, used
	// by the multi-level channel to signal its zero level).
	Lanes int
	// BypassL1 marks the op as compiled with the -dlcm=cg analogue.
	BypassL1 bool
}

// Coalesce computes the unique line addresses touched by op, in lane order.
// This is the number of NoC request packets the op generates. It allocates
// its result; the SM's per-instruction path uses CoalesceInto instead.
func Coalesce(op MemOp, simtWidth, lineBytes int) ([]uint64, error) {
	var dst []uint64
	if simtWidth > 0 {
		dst = make([]uint64, simtWidth)
	}
	n, err := CoalesceInto(dst, op, simtWidth, lineBytes)
	if err != nil || n == 0 {
		return nil, err
	}
	return dst[:n], nil
}

// CoalesceInto writes the unique line addresses touched by op, in lane
// order, to dst[:n] and returns n. dst must hold at least simtWidth entries.
// Duplicates are found by scanning the lines already written, newest first
// (neighbouring lanes usually share a line), so there is no map and nothing
// is allocated.
func CoalesceInto(dst []uint64, op MemOp, simtWidth, lineBytes int) (int, error) {
	if simtWidth <= 0 || len(dst) < simtWidth {
		//lint:allow hotalloc error path, config is validated before ticking
		return 0, fmt.Errorf("warp: SIMT width %d not positive or above the %d-line destination", simtWidth, len(dst))
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		//lint:allow hotalloc error path, config is validated before ticking
		return 0, fmt.Errorf("warp: line size %d not a positive power of two", lineBytes)
	}
	lanes := op.Lanes
	switch {
	case lanes == LanesNone:
		return 0, nil
	case lanes == 0:
		lanes = simtWidth
	case lanes < 0 || lanes > simtWidth:
		//lint:allow hotalloc error path, ops are validated at construction
		return 0, fmt.Errorf("warp: %d active lanes out of range for SIMT width %d", lanes, simtWidth)
	}
	mask := ^uint64(lineBytes - 1)
	n := 0
next:
	for lane := 0; lane < lanes; lane++ {
		la := (op.Base + uint64(lane)*op.StrideBytes) & mask
		for j := n - 1; j >= 0; j-- {
			if dst[j] == la {
				continue next
			}
		}
		dst[n] = la
		n++
	}
	return n, nil
}

// UncoalescedOp builds a MemOp whose 32 lanes each touch a distinct cache
// line starting at base — the paper's contention-generating pattern.
func UncoalescedOp(base uint64, write bool, lineBytes int) MemOp {
	return MemOp{Write: write, Base: base, StrideBytes: uint64(lineBytes), BypassL1: true}
}

// CoalescedOp builds a MemOp whose lanes all fall into a single line.
func CoalescedOp(base uint64, write bool) MemOp {
	return MemOp{Write: write, Base: base, StrideBytes: 0, BypassL1: true}
}

// PartialOp builds a MemOp touching exactly uniqueLines distinct lines using
// a subset of lanes — the knob behind the multi-level (2-bit) channel of §5,
// which signals with 0, 8, 16, or 32 unique requests per warp.
func PartialOp(base uint64, write bool, lineBytes, uniqueLines, simtWidth int) (MemOp, error) {
	if uniqueLines < 0 || uniqueLines > simtWidth {
		//lint:allow hotalloc error path, experiment specs are validated up front
		return MemOp{}, fmt.Errorf("warp: uniqueLines %d out of [0, %d]", uniqueLines, simtWidth)
	}
	lanes := uniqueLines
	if lanes == 0 {
		lanes = LanesNone
	}
	return MemOp{
		Write:       write,
		Base:        base,
		StrideBytes: uint64(lineBytes),
		Lanes:       lanes,
		BypassL1:    true,
	}, nil
}

// State tracks one resident warp on an SM.
type State int

const (
	// Ready means the warp can issue its next operation.
	Ready State = iota
	// WaitingMem means a memory operation is outstanding.
	WaitingMem
	// WaitingCycle means the warp is busy-waiting until a target cycle.
	WaitingCycle
	// Finished means the warp's program completed.
	Finished
)

// String names the state.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case WaitingMem:
		return "waiting-mem"
	case WaitingCycle:
		return "waiting-cycle"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Warp is the scheduling record for one resident warp.
type Warp struct {
	ID    int
	State State

	// Outstanding is the number of memory requests in flight for the
	// current MemOp; the op completes when it reaches zero (warp latency
	// is the latency of the last returning request, §5).
	Outstanding int
	// OpSeq numbers the warp's memory operations for reply matching and
	// CRR grouping.
	OpSeq uint64
	// OpStart is the cycle the current memory op began (first injection).
	OpStart uint64
	// WakeAt is the cycle a WaitingCycle warp becomes ready.
	WakeAt uint64
	// LastLatency is the observed latency of the most recent completed
	// memory op — the receiver's measurement (Fig 7).
	LastLatency uint64
}
