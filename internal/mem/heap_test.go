package mem

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// refFills is the container/heap implementation the typed helpers replaced,
// kept as the reference the heap layout must match.
type refFills []scheduledFill

func (h refFills) Len() int           { return len(h) }
func (h refFills) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refFills) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refFills) Push(x any)        { *h = append(*h, x.(scheduledFill)) }
func (h *refFills) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHeapHelpersMatchContainerHeap drives random push/pop sequences
// through heapPush/heapPop and through container/heap and requires the
// same popped elements and the same heap array after every operation:
// slice snapshots encode the array verbatim, so the layout is part of the
// snapshot bytes.
func TestHeapHelpersMatchContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got []scheduledFill
		var want refFills
		var seq uint64
		for op := 0; op < 400; op++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				seq++
				// Few distinct due cycles, so the seq tie-break matters.
				x := scheduledFill{at: uint64(rng.Intn(8)), la: rng.Uint64(), seq: seq}
				heapPush(&got, x)
				heap.Push(&want, x)
			} else {
				g, w := heapPop(&got), heap.Pop(&want).(scheduledFill)
				if g != w {
					t.Fatalf("seed %d op %d: popped %+v, container/heap popped %+v", seed, op, g, w)
				}
			}
			if !reflect.DeepEqual(got, []scheduledFill(want)) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("seed %d op %d: heap arrays diverged:\n got  %+v\n want %+v", seed, op, got, want)
			}
		}
	}
}
