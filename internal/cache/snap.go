package cache

import (
	"fmt"
	"sort"

	"gpunoc/internal/snap"
)

// Snapshot appends the cache's mutable state — every line's
// tag/valid/dirty/recency, the MSHR file (sorted by line address), the
// recency tick, and
// the activity counters — to the encoder. Geometry is not encoded: the
// restoring side rebuilds the cache from the same configuration. A cache
// whose line array was never allocated encodes as all lines invalid.
func (c *Cache) Snapshot(e *snap.Encoder) {
	e.Int(c.numLines())
	if c.lines == nil {
		for i := 0; i < c.numLines(); i++ {
			e.Bool(false)
			e.Bool(false)
			e.U64(0)
			e.U64(0)
		}
	}
	for i := range c.lines {
		l := &c.lines[i]
		e.Bool(l.valid)
		e.Bool(l.dirty)
		e.U64(l.tag)
		e.U64(l.used)
	}
	keys := make([]uint64, 0, len(c.mshrs))
	for la := range c.mshrs {
		keys = append(keys, la)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Int(len(keys))
	for _, la := range keys {
		e.U64(la)
		e.Int(c.mshrs[la])
	}
	e.U64(c.useTick)
	e.U64(c.hits)
	e.U64(c.misses)
	e.U64(c.merged)
	e.U64(c.stalls)
	e.U64(c.evictions)
	e.U64(c.writebacks)
}

// Restore reads state written by Snapshot into a cache built from the same
// configuration.
func (c *Cache) Restore(d *snap.Decoder) error {
	if n := d.Int(); n != c.numLines() {
		return fmt.Errorf("%w: snapshot holds %d cache lines, cache has %d", snap.ErrCorrupt, n, c.numLines())
	}
	c.touch()
	for i := range c.lines {
		l := &c.lines[i]
		l.valid = d.Bool()
		l.dirty = d.Bool()
		l.tag = d.U64()
		l.used = d.U64()
	}
	c.mshrs = make(map[uint64]int, c.mshrCap)
	n := d.Len()
	for i := 0; i < n; i++ {
		la := d.U64()
		c.mshrs[la] = d.Int()
	}
	c.useTick = d.U64()
	c.hits = d.U64()
	c.misses = d.U64()
	c.merged = d.U64()
	c.stalls = d.U64()
	c.evictions = d.U64()
	c.writebacks = d.U64()
	return d.Err()
}
