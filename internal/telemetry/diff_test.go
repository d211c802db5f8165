package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gpunoc/internal/probe"
	"gpunoc/internal/snap"
)

// refSampler is the reference the sampler's cursor merge must reproduce:
// every metric and EWMA baseline looked up in maps keyed by name.
type refSampler struct {
	window   uint64
	counters map[string]uint64
	gauges   map[string]int64
	hists    map[string]HistDelta // cumulative count and sum
	busy     map[string]uint64
	ewma     map[string]float64
}

func newRefSampler(window uint64) *refSampler {
	return &refSampler{window: window, counters: map[string]uint64{}, gauges: map[string]int64{},
		hists: map[string]HistDelta{}, busy: map[string]uint64{}, ewma: map[string]float64{}}
}

func (s *refSampler) next(index uint64, cur probe.Snapshot) Window {
	w := Window{Index: index, Start: cur.Cycles - s.window, End: cur.Cycles}
	for _, c := range cur.Counters {
		if d := c.Value - s.counters[c.Name]; d != 0 {
			if w.Counters == nil {
				w.Counters = map[string]uint64{}
			}
			w.Counters[c.Name] = d
		}
		s.counters[c.Name] = c.Value
	}
	for _, g := range cur.Gauges {
		if g.Value != s.gauges[g.Name] {
			if w.Gauges == nil {
				w.Gauges = map[string]int64{}
			}
			w.Gauges[g.Name] = g.Value
		}
		s.gauges[g.Name] = g.Value
	}
	for _, h := range cur.Hists {
		prev := s.hists[h.Name]
		if d := uint64(h.Dist.Count) - prev.Count; d != 0 {
			if w.Hists == nil {
				w.Hists = map[string]HistDelta{}
			}
			w.Hists[h.Name] = HistDelta{Count: d, Sum: h.Sum - prev.Sum}
		}
		s.hists[h.Name] = HistDelta{Count: uint64(h.Dist.Count), Sum: h.Sum}
	}
	for _, o := range cur.Occupancy {
		busy := o.Busy - s.busy[o.Name]
		s.busy[o.Name] = o.Busy
		rate := math.Min(float64(busy)/(float64(o.Units)*float64(s.window)), 1)
		base := s.ewma[o.Name]
		s.ewma[o.Name] = base + DefaultEWMAAlpha*(rate-base)
		if busy != 0 || base >= ewmaFloor {
			if w.Occ == nil {
				w.Occ = map[string]OccWindow{}
			}
			w.Occ[o.Name] = OccWindow{Busy: busy, Rate: rate, EWMA: base}
		}
	}
	return w
}

// TestSamplerDiffMatchesByNameReference drives a registry whose metric set
// grows between windows — new names land anywhere in the sort order, as
// when an experiment builds another engine on the same registry — and
// checks every window against the by-name reference. Halfway through, the
// sampler is checkpointed and the run continues on a restored copy, which
// must keep matching.
func TestSamplerDiffMatchesByNameReference(t *testing.T) {
	const window = 8
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := probe.NewRegistry()
		rec := &Recorder{}
		s := NewSampler(window, rec)
		ref := newRefSampler(window)
		var want []Window
		pool := rng.Perm(40)
		registered := 0
		for win := uint64(0); win < 60; win++ {
			if registered < len(pool) && rng.Intn(4) == 0 {
				for n := 1 + rng.Intn(5); n > 0 && registered < len(pool); n-- {
					id := pool[registered]
					registered++
					r.Counter(fmt.Sprintf("c%02d", id))
					r.Gauge(fmt.Sprintf("g%02d", id))
					r.Hist(fmt.Sprintf("h%02d", id))
					r.Occupancy(fmt.Sprintf("o%02d", id), uint64(1+id%3))
				}
			}
			for k := 0; k < registered; k++ {
				id := pool[k]
				if rng.Intn(3) == 0 {
					r.Counter(fmt.Sprintf("c%02d", id)).Add(uint64(rng.Intn(9)))
					r.Gauge(fmt.Sprintf("g%02d", id)).Set(int64(rng.Intn(5)))
					r.Hist(fmt.Sprintf("h%02d", id)).Observe(uint64(rng.Intn(100)))
					r.Occupancy(fmt.Sprintf("o%02d", id), 0).AddBusy(uint64(rng.Intn(window * 3)))
				}
			}
			if win == 30 {
				e := snap.NewEncoder()
				s.Snapshot(e)
				d, err := snap.NewDecoder(e.Finish(0), 0)
				if err != nil {
					t.Fatal(err)
				}
				restored := NewSampler(window, rec)
				if err := restored.Restore(d); err != nil {
					t.Fatal(err)
				}
				s = restored
			}
			s.Step(window, r)
			want = append(want, ref.next(win, r.Snapshot((win+1)*window)))
		}
		got := rec.Windows()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d windows, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: window %d differs from the by-name reference:\n got  %+v\n want %+v", seed, i, got[i], want[i])
			}
		}
	}
}
