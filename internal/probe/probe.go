// Package probe is the deterministic, cycle-level instrumentation layer of
// the simulator: allocation-light counters, gauges, log2-bucketed latency
// histograms, link occupancy trackers, and a bounded trace ring of span and
// instant events — all stamped in *simulated cycles*, never wall time, so
// instrumented runs stay byte-reproducible and the lint determinism rule
// holds.
//
// A probe.Registry is owned by one engine.GPU (handed down through
// config.Config, the same way the CycleMeter travels) and every contention
// point the paper names registers its metrics there at construction time:
// the TPC/GPC muxes and crossbar ports (link occupancy, queue depth, queue
// wait), arbiter grant/deny per input, L2 slice hit/miss/latency, DRAM bank
// row hits and queue wait, and SM LSU issue stalls. A nil registry is the
// no-op fast path — every method is safe on a nil receiver and components
// keep a single nil check on their hot paths — so an uninstrumented
// simulation is byte-identical to, and within noise as fast as, the
// pre-instrumentation code.
//
// The package has no package-level state and spawns no goroutines: like the
// rest of the engine substrate it lives inside the single-goroutine tick
// model, and two GPUs instrumented with two registries share nothing.
package probe

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"gpunoc/internal/stats"
)

// Counter is a monotonically increasing event count. All methods are safe on
// a nil receiver (the disabled-probe fast path).
type Counter struct {
	n uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 on a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is an instantaneous level (queue depth, MSHR occupancy) with a
// high-water mark. All methods are safe on a nil receiver.
type Gauge struct {
	v   int64
	max int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 on a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// histBuckets is the fixed bucket count of a Hist: bucket i holds values
// whose bit length is i, i.e. bucket 0 is exactly 0, bucket i covers
// [2^(i-1), 2^i). 64-bit values need 65 buckets.
const histBuckets = 65

// Hist is a histogram of uint64 samples (latencies in cycles) over fixed
// log2 buckets: constant memory, no per-observation allocation, and quantile
// estimates good to within a power of two refined by linear interpolation
// inside the bucket. All methods are safe on a nil receiver.
type Hist struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [histBuckets]uint64
}

// Observe folds one sample into the histogram.
func (h *Hist) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Hist) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest sample observed.
func (h *Hist) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the bucket
// holding the target rank and interpolating linearly across its value range.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count-1)
	var seen uint64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		hi := seen + n
		if rank < float64(hi) {
			lo, width := bucketBounds(b)
			if n == 1 {
				return float64(lo)
			}
			frac := (rank - float64(seen)) / float64(n-1)
			v := float64(lo) + frac*float64(width-1)
			if m := float64(h.max); v > m {
				return m
			}
			return v
		}
		seen = hi
	}
	return float64(h.max)
}

// bucketBounds returns the smallest value of bucket b and the bucket width.
func bucketBounds(b int) (lo, width uint64) {
	if b == 0 {
		return 0, 1
	}
	lo = uint64(1) << (b - 1)
	return lo, lo
}

// Dist summarizes the histogram in the shared stats.Dist latency shape
// (count/mean/p50/p95/p99/max), so every component's metrics report the same
// fields the experiment-level summaries use.
func (h *Hist) Dist() stats.Dist {
	if h == nil || h.count == 0 {
		return stats.Dist{}
	}
	return stats.Dist{
		Count: int(h.count),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   float64(h.max),
	}
}

// Occupancy tracks the utilization of a rate-limited channel: the component
// adds "busy units" as it serializes traffic (the link adds flits*rateDen,
// so one cycle of full utilization equals UnitsPerCycle units), and the
// snapshot divides by elapsed cycles. A saturated link reports ~1.0. All
// methods are safe on a nil receiver.
type Occupancy struct {
	busy        uint64
	unitsPerCyc uint64
}

// AddBusy records units of channel busy time.
func (o *Occupancy) AddBusy(units uint64) {
	if o != nil {
		o.busy += units
	}
}

// Busy returns the accumulated busy units.
func (o *Occupancy) Busy() uint64 {
	if o == nil {
		return 0
	}
	return o.busy
}

// Value returns the occupancy over the first `cycles` simulated cycles:
// busy/(UnitsPerCycle*cycles), clamped to [0, 1].
func (o *Occupancy) Value(cycles uint64) float64 {
	if o == nil || o.unitsPerCyc == 0 || cycles == 0 {
		return 0
	}
	v := float64(o.busy) / (float64(o.unitsPerCyc) * float64(cycles))
	return math.Min(v, 1)
}

// Registry owns every metric of one instrumented GPU. Metric lookups are
// idempotent — registering a name twice returns the existing instrument, so
// an experiment that builds several engine instances from one config
// accumulates across them — and the snapshot lists metrics sorted by name,
// independent of registration order. All methods are safe on a nil receiver
// and return nil instruments, which is the disabled fast path.
//
// Each metric kind keeps, beside its by-name map, a frozen name-sorted order
// of its instruments. The order is rebuilt only after a new name registered
// (through Counter, Gauge, Hist, Occupancy or Unmarshal), so Snapshot and
// Marshal — which run once per telemetry window and once per checkpoint —
// walk two slices: no map iteration, no sort and no per-name lookup.
type Registry struct {
	counters kind[Counter]
	gauges   kind[Gauge]
	hists    kind[Hist]
	occs     kind[Occupancy]
	trace    *Trace
}

// kind is one metric kind of a Registry: the instruments by name, plus the
// frozen name-sorted order Snapshot and Marshal walk.
type kind[T any] struct {
	byName map[string]*T
	names  []string // sorted ascending
	items  []*T     // items[i] is byName[names[i]]
	stale  bool     // a name registered since the order was built
}

// lookup returns the instrument named name, creating a zero one on first
// use; created reports whether it did.
func (k *kind[T]) lookup(name string) (v *T, created bool) {
	if v, ok := k.byName[name]; ok {
		return v, false
	}
	if k.byName == nil {
		k.byName = map[string]*T{}
	}
	v = new(T)
	k.byName[name] = v
	k.stale = true
	return v, true
}

// refresh rebuilds the frozen order if a name registered since it was last
// built.
func (k *kind[T]) refresh() {
	if !k.stale {
		return
	}
	k.names = k.names[:0]
	for name := range k.byName {
		k.names = append(k.names, name)
	}
	sort.Strings(k.names)
	k.items = k.items[:0]
	for _, name := range k.names {
		k.items = append(k.items, k.byName[name])
	}
	k.stale = false
}

// NewRegistry returns an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, _ := r.counters.lookup(name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, _ := r.gauges.lookup(name)
	return g
}

// Hist returns the histogram registered under name, creating it on first
// use.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	h, _ := r.hists.lookup(name)
	return h
}

// Occupancy returns the occupancy tracker registered under name, creating it
// with the given capacity (busy units per cycle at full utilization) on
// first use.
func (r *Registry) Occupancy(name string, unitsPerCycle uint64) *Occupancy {
	if r == nil {
		return nil
	}
	o, created := r.occs.lookup(name)
	if created {
		o.unitsPerCyc = unitsPerCycle
	}
	return o
}

// order brings every kind's frozen order up to date.
func (r *Registry) order() {
	r.counters.refresh()
	r.gauges.refresh()
	r.hists.refresh()
	r.occs.refresh()
}

// EnableTrace attaches a bounded trace ring of at most cap events (values
// < 1 select DefaultTraceCap) and returns it. Idempotent: a second call
// returns the existing ring.
func (r *Registry) EnableTrace(cap int) *Trace {
	if r == nil {
		return nil
	}
	if r.trace == nil {
		r.trace = newTrace(cap)
	}
	return r.trace
}

// Tracer returns the trace ring, or nil when tracing is disabled (or the
// registry itself is nil). Components hold the result and emit through it
// with nil-safe calls.
func (r *Registry) Tracer() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// CounterStat is one counter in a snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeStat is one gauge in a snapshot.
type GaugeStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistStat is one histogram in a snapshot: the raw count/sum plus the shared
// stats.Dist latency shape.
type HistStat struct {
	Name string     `json:"name"`
	Sum  uint64     `json:"sum"`
	Dist stats.Dist `json:"dist"`
}

// OccStat is one occupancy tracker in a snapshot. Units is the tracker's
// busy-units-per-cycle capacity, so a consumer diffing two snapshots can
// normalize the Busy delta over any cycle span: rate = ΔBusy/(Units·Δcycles).
type OccStat struct {
	Name  string  `json:"name"`
	Busy  uint64  `json:"busy_units"`
	Units uint64  `json:"units_per_cycle"`
	Value float64 `json:"value"`
}

// Snapshot is a deterministic point-in-time copy of every metric, sorted by
// name within each kind. Cycles is the simulated-cycle horizon occupancies
// are computed against.
type Snapshot struct {
	Cycles    uint64        `json:"cycles"`
	Counters  []CounterStat `json:"counters,omitempty"`
	Gauges    []GaugeStat   `json:"gauges,omitempty"`
	Hists     []HistStat    `json:"hists,omitempty"`
	Occupancy []OccStat     `json:"occupancy,omitempty"`
}

// Snapshot captures every registered metric at the given simulated cycle.
// The result depends only on the metric values and names, never on map
// iteration or registration order. It walks the frozen orders, so an
// unchanged metric set costs one allocation per kind plus a copy of the
// values. Safe on a nil registry (empty snapshot).
func (r *Registry) Snapshot(cycles uint64) Snapshot {
	var s Snapshot
	r.SnapshotInto(&s, cycles)
	return s
}

// SnapshotInto is Snapshot writing into *s, reusing the capacity of its
// slices: a caller alternating between two Snapshot values, as the
// telemetry sampler does once per window, allocates nothing while the
// metric set is unchanged. A kind with no metrics leaves a nil slice.
func (r *Registry) SnapshotInto(s *Snapshot, cycles uint64) {
	s.Cycles = cycles
	if r == nil {
		s.Counters, s.Gauges, s.Hists, s.Occupancy = nil, nil, nil, nil
		return
	}
	r.order()
	s.Counters = resize(s.Counters, len(r.counters.items))
	for i, c := range r.counters.items {
		s.Counters[i] = CounterStat{Name: r.counters.names[i], Value: c.n}
	}
	s.Gauges = resize(s.Gauges, len(r.gauges.items))
	for i, g := range r.gauges.items {
		s.Gauges[i] = GaugeStat{Name: r.gauges.names[i], Value: g.v, Max: g.max}
	}
	s.Hists = resize(s.Hists, len(r.hists.items))
	for i, h := range r.hists.items {
		s.Hists[i] = HistStat{Name: r.hists.names[i], Sum: h.sum, Dist: h.Dist()}
	}
	s.Occupancy = resize(s.Occupancy, len(r.occs.items))
	for i, o := range r.occs.items {
		s.Occupancy[i] = OccStat{Name: r.occs.names[i], Busy: o.busy, Units: o.unitsPerCyc, Value: o.Value(cycles)}
	}
}

// resize returns a slice of length n, reusing s's array when it is large
// enough; nil for n == 0.
func resize[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case cap(s) >= n:
		return s[:n]
	}
	return make([]T, n)
}

// FindOccupancy returns the occupancy stat named name (tests and CLI
// summaries).
func (s Snapshot) FindOccupancy(name string) (OccStat, bool) {
	for _, o := range s.Occupancy {
		if o.Name == name {
			return o, true
		}
	}
	return OccStat{}, false
}

// FindCounter returns the counter stat named name.
func (s Snapshot) FindCounter(name string) (CounterStat, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return CounterStat{}, false
}

// FindGauge returns the gauge stat named name.
func (s Snapshot) FindGauge(name string) (GaugeStat, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g, true
		}
	}
	return GaugeStat{}, false
}

// FindHist returns the histogram stat named name.
func (s Snapshot) FindHist(name string) (HistStat, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistStat{}, false
}

// CSV renders the snapshot as flat kind,name,... rows — one deterministic
// file per experiment for plotting alongside the figure CSVs.
func (s Snapshot) CSV() string {
	var b strings.Builder
	b.WriteString("kind,name,value,max,count,mean,p50,p95,p99\n")
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter,%s,%d,,,,,,\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge,%s,%d,%d,,,,,\n", g.Name, g.Value, g.Max)
	}
	for _, h := range s.Hists {
		fmt.Fprintf(&b, "hist,%s,%d,%g,%d,%g,%g,%g,%g\n",
			h.Name, h.Sum, h.Dist.Max, h.Dist.Count, h.Dist.Mean, h.Dist.P50, h.Dist.P95, h.Dist.P99)
	}
	for _, o := range s.Occupancy {
		fmt.Fprintf(&b, "occupancy,%s,%.6f,,,,,,\n", o.Name, o.Value)
	}
	return b.String()
}
