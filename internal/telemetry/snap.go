// Checkpoint support for the telemetry sampler: the window clock, the next
// emission point, the window index, the previous metric snapshot windows are
// diffed against, and the EWMA state. Watchers are wiring — the restoring
// side reattaches its own, and windows emitted before the snapshot stay with
// whoever consumed them (the result cache stores them alongside the report).
package telemetry

import (
	"fmt"

	"gpunoc/internal/probe"
	"gpunoc/internal/snap"
)

// Snapshot appends the sampler's mutable state to the encoder. Safe on a nil
// sampler (encoded as absent).
func (s *Sampler) Snapshot(e *snap.Encoder) {
	e.Mark("telemetry")
	e.Bool(s != nil)
	if s == nil {
		return
	}
	e.U64(s.window)
	e.F64(s.alpha)
	e.U64(s.clock)
	e.U64(s.nextAt)
	e.U64(s.index)
	encodeProbeSnapshot(e, s.prev)
	e.Int(len(s.ewmaNames))
	for i, name := range s.ewmaNames {
		e.String(name)
		e.F64(s.ewma[i])
	}
}

// Restore reads state written by Snapshot into a sampler built from the same
// configuration. A snapshot holding sampler state restored into a nil
// sampler is consumed and discarded; restoring an absent-sampler snapshot
// into a live sampler leaves it at its freshly constructed state.
func (s *Sampler) Restore(d *snap.Decoder) error {
	d.Expect("telemetry")
	if !d.Bool() {
		return d.Err()
	}
	window := d.U64()
	alpha := d.F64()
	clock := d.U64()
	nextAt := d.U64()
	index := d.U64()
	prev := decodeProbeSnapshot(d)
	n := d.Len()
	names := make([]string, n)
	ewma := make([]float64, n)
	for i := range names {
		names[i] = d.String()
		ewma[i] = d.F64()
		if i > 0 && names[i] <= names[i-1] && d.Err() == nil {
			return fmt.Errorf("%w: telemetry baselines not sorted by name at %q", snap.ErrCorrupt, names[i])
		}
	}
	if err := d.Err(); err != nil || s == nil {
		return err
	}
	s.window = window
	s.alpha = alpha
	s.clock = clock
	s.nextAt = nextAt
	s.index = index
	s.prev = prev
	s.ewmaNames = names
	s.ewma = ewma
	return nil
}

// encodeProbeSnapshot appends one probe.Snapshot (already sorted by name
// within each kind) to the encoder.
func encodeProbeSnapshot(e *snap.Encoder, ps probe.Snapshot) {
	e.U64(ps.Cycles)
	e.Int(len(ps.Counters))
	for _, c := range ps.Counters {
		e.String(c.Name)
		e.U64(c.Value)
	}
	e.Int(len(ps.Gauges))
	for _, g := range ps.Gauges {
		e.String(g.Name)
		e.I64(g.Value)
		e.I64(g.Max)
	}
	e.Int(len(ps.Hists))
	for _, h := range ps.Hists {
		e.String(h.Name)
		e.U64(h.Sum)
		e.Int(h.Dist.Count)
		e.F64(h.Dist.Mean)
		e.F64(h.Dist.P50)
		e.F64(h.Dist.P95)
		e.F64(h.Dist.P99)
		e.F64(h.Dist.Max)
	}
	e.Int(len(ps.Occupancy))
	for _, o := range ps.Occupancy {
		e.String(o.Name)
		e.U64(o.Busy)
		e.U64(o.Units)
		e.F64(o.Value)
	}
}

// decodeProbeSnapshot reads one probe.Snapshot written by
// encodeProbeSnapshot.
func decodeProbeSnapshot(d *snap.Decoder) probe.Snapshot {
	var ps probe.Snapshot
	ps.Cycles = d.U64()
	n := d.Len()
	for i := 0; i < n; i++ {
		var c probe.CounterStat
		c.Name = d.String()
		c.Value = d.U64()
		ps.Counters = append(ps.Counters, c)
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		var g probe.GaugeStat
		g.Name = d.String()
		g.Value = d.I64()
		g.Max = d.I64()
		ps.Gauges = append(ps.Gauges, g)
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		var h probe.HistStat
		h.Name = d.String()
		h.Sum = d.U64()
		h.Dist.Count = d.Int()
		h.Dist.Mean = d.F64()
		h.Dist.P50 = d.F64()
		h.Dist.P95 = d.F64()
		h.Dist.P99 = d.F64()
		h.Dist.Max = d.F64()
		ps.Hists = append(ps.Hists, h)
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		var o probe.OccStat
		o.Name = d.String()
		o.Busy = d.U64()
		o.Units = d.U64()
		o.Value = d.F64()
		ps.Occupancy = append(ps.Occupancy, o)
	}
	return ps
}
