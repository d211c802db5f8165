package probe

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gpunoc/internal/snap"
)

// metricNames returns n distinct metric names in a seed-shuffled order.
func metricNames(n int, seed int64) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("noc/link%d/in%d/denies", i%97, i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// register adds one instrument of every kind per name, with values derived
// from the name so any registry holding the same names holds the same
// values.
func register(r *Registry, names []string) {
	for _, name := range names {
		v := uint64(len(name))
		r.Counter("c/" + name).Add(v)
		r.Gauge("g/" + name).Set(int64(v))
		r.Hist("h/" + name).Observe(v)
		r.Occupancy("o/"+name, 2).AddBusy(v)
	}
}

// sortedReference builds the snapshot the frozen order must reproduce:
// every kind collected from its map and sorted by name afresh.
func sortedReference(r *Registry, cycles uint64) Snapshot {
	s := Snapshot{Cycles: cycles}
	byName := func(names []string) []string { sort.Strings(names); return names }
	var names []string
	for name := range r.counters.byName {
		names = append(names, name)
	}
	for _, name := range byName(names) {
		s.Counters = append(s.Counters, CounterStat{Name: name, Value: r.counters.byName[name].Load()})
	}
	names = names[:0]
	for name := range r.gauges.byName {
		names = append(names, name)
	}
	for _, name := range byName(names) {
		g := r.gauges.byName[name]
		s.Gauges = append(s.Gauges, GaugeStat{Name: name, Value: g.Load(), Max: g.Max()})
	}
	names = names[:0]
	for name := range r.hists.byName {
		names = append(names, name)
	}
	for _, name := range byName(names) {
		h := r.hists.byName[name]
		s.Hists = append(s.Hists, HistStat{Name: name, Sum: h.Sum(), Dist: h.Dist()})
	}
	names = names[:0]
	for name := range r.occs.byName {
		names = append(names, name)
	}
	for _, name := range byName(names) {
		o := r.occs.byName[name]
		s.Occupancy = append(s.Occupancy, OccStat{Name: name, Busy: o.Busy(), Units: o.unitsPerCyc, Value: o.Value(cycles)})
	}
	return s
}

// TestFrozenOrderMatchesSortedReference registers names in shuffled orders,
// adds names between two snapshots (an experiment building several engines
// on one registry) and through Unmarshal (a restore), and requires every
// snapshot to equal one sorted afresh, with Marshal bytes independent of
// registration order.
func TestFrozenOrderMatchesSortedReference(t *testing.T) {
	all := metricNames(300, 1)
	first, later := all[:200], all[200:]

	check := func(label string, r *Registry, cycles uint64) {
		t.Helper()
		if got, want := r.Snapshot(cycles), sortedReference(r, cycles); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: frozen-order snapshot differs from the sorted reference", label)
		}
	}
	marshal := func(r *Registry) []byte {
		e := snap.NewEncoder()
		Marshal(e, r)
		return e.Finish(0)
	}

	var blobs [][]byte
	for seed := int64(0); seed < 4; seed++ {
		r := NewRegistry()
		order := append([]string(nil), first...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		register(r, order)
		check("first engine", r, 1000)
		r.Snapshot(1000)
		for _, name := range order[:50] { // looking known names up keeps the order
			r.Counter("c/" + name)
			r.Occupancy("o/"+name, 2)
		}
		if r.counters.stale || r.occs.stale {
			t.Fatalf("seed %d: re-registering known names marked the order stale", seed)
		}
		r.Gauge("g/only-a-gauge") // one kind growing alone marks only that kind
		if !r.gauges.stale || r.counters.stale {
			t.Fatalf("seed %d: a new gauge marked stale gauges=%v counters=%v", seed, r.gauges.stale, r.counters.stale)
		}
		register(r, later) // a second engine registers new names
		check("second engine", r, 2000)
		blobs = append(blobs, marshal(r))
	}
	for i := 1; i < len(blobs); i++ {
		if !reflect.DeepEqual(blobs[i], blobs[0]) {
			t.Fatalf("Marshal bytes depend on registration order (run %d vs 0)", i)
		}
	}

	// Restore: Unmarshal into a registry that already holds some of the
	// names registers the rest, and the frozen order picks them up.
	r := NewRegistry()
	register(r, later)
	r.Snapshot(0)
	d, err := snap.NewDecoder(blobs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(d, r); err != nil {
		t.Fatal(err)
	}
	check("unmarshalled", r, 2000)
	if got := marshal(r); !reflect.DeepEqual(got, blobs[0]) {
		t.Fatalf("Unmarshal then Marshal does not round-trip the blob")
	}
}

// TestSnapshotAllocsUnchangedSet pins the cost of snapshotting an unchanged
// metric set of Volta's size: one allocation per result slice, nothing per
// metric.
func TestSnapshotAllocsUnchangedSet(t *testing.T) {
	r := NewRegistry()
	register(r, metricNames(750, 3)) // 3000 metrics over the four kinds
	r.Snapshot(1)
	if n := testing.AllocsPerRun(20, func() { r.Snapshot(100) }); n > 4 {
		t.Fatalf("Snapshot of an unchanged 3000-metric set made %v allocations, want at most 4", n)
	}
}
