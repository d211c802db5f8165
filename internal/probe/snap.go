// Checkpoint support for the instrumentation registry. Instrument values are
// encoded sorted by name within each kind and restored by name onto the
// restoring engine's registry, creating any instrument not yet registered —
// so metric deltas across a restore match an uninterrupted run exactly. The
// trace ring is deliberately not serializable: engine.(*GPU).Snapshot
// refuses to snapshot a tracing registry.
package probe

import "gpunoc/internal/snap"

// Marshal appends every registered metric of r (which may be nil — the
// uninstrumented fast path encodes as an absent registry) to the encoder.
func Marshal(e *snap.Encoder, r *Registry) {
	e.Mark("probe")
	e.Bool(r != nil)
	if r == nil {
		return
	}
	r.order()
	e.Int(len(r.counters.items))
	for i, c := range r.counters.items {
		e.String(r.counters.names[i])
		e.U64(c.n)
	}
	e.Int(len(r.gauges.items))
	for i, g := range r.gauges.items {
		e.String(r.gauges.names[i])
		e.I64(g.v)
		e.I64(g.max)
	}
	e.Int(len(r.hists.items))
	for i, h := range r.hists.items {
		e.String(r.hists.names[i])
		e.U64(h.count)
		e.U64(h.sum)
		e.U64(h.max)
		for _, b := range h.buckets {
			e.U64(b)
		}
	}
	e.Int(len(r.occs.items))
	for i, o := range r.occs.items {
		e.String(r.occs.names[i])
		e.U64(o.busy)
		e.U64(o.unitsPerCyc)
	}
}

// Unmarshal reads metrics written by Marshal into r, resolving instruments
// by name and registering any the restoring engine has not touched yet. A
// nil r consumes the section and discards the values (restoring an
// instrumented snapshot into an uninstrumented engine drops its metrics,
// mirroring how an uninstrumented run never had them).
func Unmarshal(d *snap.Decoder, r *Registry) error {
	d.Expect("probe")
	if !d.Bool() {
		return d.Err()
	}
	n := d.Len()
	for i := 0; i < n; i++ {
		name := d.String()
		v := d.U64()
		if c := r.Counter(name); c != nil {
			c.n = v
		}
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		name := d.String()
		v := d.I64()
		max := d.I64()
		if g := r.Gauge(name); g != nil {
			g.v = v
			g.max = max
		}
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		name := d.String()
		h := r.Hist(name)
		if h == nil {
			h = &Hist{}
		}
		h.count = d.U64()
		h.sum = d.U64()
		h.max = d.U64()
		for b := range h.buckets {
			h.buckets[b] = d.U64()
		}
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		name := d.String()
		busy := d.U64()
		units := d.U64()
		if o := r.Occupancy(name, units); o != nil {
			o.busy = busy
			o.unitsPerCyc = units
		}
	}
	return d.Err()
}
