package ring

import (
	"math/rand"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 100; i++ {
		b.Push(i)
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	for i := 0; i < 100; i++ {
		if got := *b.Front(); got != i {
			t.Fatalf("Front = %d, want %d", got, i)
		}
		if got := b.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", b.Len())
	}
}

func TestWrapAround(t *testing.T) {
	var b Buffer[int]
	next, expect := 0, 0
	// Interleave pushes and pops so head walks around the array many times.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			b.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := b.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for b.Len() > 0 {
		if got := b.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, pushed %d", expect, next)
	}
}

func TestAt(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 5; i++ {
		b.Push(10 + i)
	}
	b.Pop()
	b.Push(15)
	for i := 0; i < b.Len(); i++ {
		if got := *b.At(i); got != 11+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 11+i)
		}
	}
	*b.At(2) = 99
	if got := *b.At(2); got != 99 {
		t.Fatalf("At(2) after write = %d, want 99", got)
	}
}

// TestRemoveAtMatchesSlice drives the ring and a reference slice with the
// same random operation sequence and requires identical contents throughout
// — RemoveAt (both shift directions), Push, and Pop must preserve order
// exactly like append/copy on a plain slice.
func TestRemoveAtMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Buffer[int]
	var ref []int
	next := 0
	for op := 0; op < 5000; op++ {
		switch {
		case len(ref) == 0 || rng.Intn(3) == 0:
			b.Push(next)
			ref = append(ref, next)
			next++
		case rng.Intn(2) == 0:
			got, want := b.Pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, want)
			}
		default:
			i := rng.Intn(len(ref))
			got, want := b.RemoveAt(i), ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got != want {
				t.Fatalf("op %d: RemoveAt(%d) = %d, want %d", op, i, got, want)
			}
		}
		if b.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, b.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *b.At(i); got != want {
				t.Fatalf("op %d: At(%d) = %d, want %d", op, i, got, want)
			}
		}
	}
}

// TestWrapAroundAfterGrowsWithRemoveAt grows the ring several times from a
// non-zero head, then walks the head across the end of the (power-of-two)
// backing array many times while removing from both sides of the middle,
// checking every element against a reference slice.
func TestWrapAroundAfterGrowsWithRemoveAt(t *testing.T) {
	var b Buffer[int]
	var ref []int
	next := 0
	push := func() {
		b.Push(next)
		ref = append(ref, next)
		next++
	}
	check := func(step string) {
		t.Helper()
		if c := len(b.buf); c&(c-1) != 0 {
			t.Fatalf("%s: capacity %d not a power of two", step, c)
		}
		if b.Len() != len(ref) {
			t.Fatalf("%s: Len = %d, want %d", step, b.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *b.At(i); got != want {
				t.Fatalf("%s: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
	// Offset the head, then grow 8 -> 16 -> 32 -> 64 around it.
	for i := 0; i < 5; i++ {
		push()
	}
	for i := 0; i < 3; i++ {
		b.Pop()
		ref = ref[1:]
	}
	for len(b.buf) < 64 {
		push()
		check("grow")
	}
	if len(b.buf) != 64 {
		t.Fatalf("capacity %d after grows, want 64", len(b.buf))
	}
	// Steady state at a fixed size: the head wraps the array repeatedly.
	for round := 0; round < 200; round++ {
		push()
		push()
		i := 1 + round%3 // front side: shifts the front segment
		if got, want := b.RemoveAt(i), ref[i]; got != want {
			t.Fatalf("round %d: RemoveAt(%d) = %d, want %d", round, i, got, want)
		}
		ref = append(ref[:i], ref[i+1:]...)
		j := len(ref) - 2 // back side: shifts the tail segment
		if got, want := b.RemoveAt(j), ref[j]; got != want {
			t.Fatalf("round %d: RemoveAt(%d) = %d, want %d", round, j, got, want)
		}
		ref = append(ref[:j], ref[j+1:]...)
		push()
		if got, want := b.Pop(), ref[0]; got != want {
			t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
		}
		ref = ref[1:]
		check("steady")
	}
	if len(b.buf) != 64 {
		t.Fatalf("capacity grew to %d at a steady length", len(b.buf))
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var b Buffer[*int]
	v := new(int)
	b.Push(v)
	b.Pop()
	// The backing array must not pin the popped pointer.
	if b.buf[0] != nil {
		t.Fatal("Pop left the popped pointer in the backing array")
	}
	b.Push(v)
	b.Push(v)
	b.RemoveAt(1)
	for i := range b.buf {
		if i != b.head && b.buf[i] != nil {
			t.Fatalf("RemoveAt left a stale pointer at slot %d", i)
		}
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 16; i++ {
		b.Push(i)
	}
	for b.Len() > 0 {
		b.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			b.Push(i)
		}
		for b.Len() > 0 {
			b.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocated %.1f times per run, want 0", allocs)
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on empty buffer did not panic", name)
			}
		}()
		f()
	}
	var b Buffer[int]
	expectPanic("Pop", func() { b.Pop() })
	expectPanic("Front", func() { b.Front() })
	expectPanic("At", func() { b.At(0) })
	expectPanic("RemoveAt", func() { b.RemoveAt(0) })
}
