// Package cache implements a set-associative cache with LRU replacement and
// MSHR-based miss tracking. It backs the 48 L2 slices (96 KB each on the
// Volta configuration of Table 1) and, optionally, the per-SM L1 that probe
// kernels bypass with the -dlcm=cg analogue.
package cache

import (
	"fmt"

	"gpunoc/internal/probe"
)

// Result describes the outcome of an access.
type Result int

const (
	// Hit means the line was present.
	Hit Result = iota
	// Miss means the line was absent and a new MSHR was allocated; the
	// caller must fetch from memory and call Fill.
	Miss
	// MissMerged means the line was absent but an MSHR for it already
	// exists; the access piggybacks on the outstanding fill.
	MissMerged
	// Stall means no MSHR was available; the access must be retried.
	Stall
)

// String names the result for logs and tests.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	used  uint64 // LRU timestamp
}

// Cache is a blocking-free set-associative cache model. It tracks presence
// and recency, not data contents (the simulator is timing-only).
type Cache struct {
	lineBytes uint64
	sets      uint64
	ways      int
	// lines holds sets*ways slots, row-major by set. It stays nil until
	// the first Access or Fill: most per-SM L1s are never touched, and an
	// absent array reads as all lines invalid.
	lines []line

	mshrs   map[uint64]int // line address -> merged request count
	mshrCap int

	useTick uint64

	// Counters.
	hits, misses, merged, stalls, evictions, writebacks uint64

	pr *cacheProbes // nil when uninstrumented (the fast path)
}

// cacheProbes mirrors the access-outcome counters into a probe.Registry and
// tracks MSHR occupancy as a gauge (its Max is the high-water mark).
type cacheProbes struct {
	hits, misses, merged, stalls *probe.Counter
	mshr                         *probe.Gauge
}

// Instrument registers this cache's metrics with r under the given prefix
// (e.g. "mem/slice3/l2"). A nil registry leaves the cache uninstrumented.
func (c *Cache) Instrument(r *probe.Registry, prefix string) {
	if r == nil {
		return
	}
	c.pr = &cacheProbes{
		hits:   r.Counter(prefix + "/hits"),
		misses: r.Counter(prefix + "/misses"),
		merged: r.Counter(prefix + "/merged"),
		stalls: r.Counter(prefix + "/stalls"),
		mshr:   r.Gauge(prefix + "/mshr_pending"),
	}
}

// New builds a cache of the given total size. sizeBytes must be divisible by
// lineBytes*ways.
func New(sizeBytes, lineBytes, ways, mshrs int) (*Cache, error) {
	switch {
	case sizeBytes <= 0 || lineBytes <= 0 || ways <= 0:
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", sizeBytes, lineBytes, ways)
	case lineBytes&(lineBytes-1) != 0:
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	case sizeBytes%(lineBytes*ways) != 0:
		return nil, fmt.Errorf("cache: size %d not divisible by line*ways", sizeBytes)
	case mshrs <= 0:
		return nil, fmt.Errorf("cache: non-positive MSHR count %d", mshrs)
	}
	sets := sizeBytes / (lineBytes * ways)
	return &Cache{
		lineBytes: uint64(lineBytes),
		sets:      uint64(sets),
		ways:      ways,
		mshrs:     make(map[uint64]int, mshrs),
		mshrCap:   mshrs,
	}, nil
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (c.lineBytes - 1) }

func (c *Cache) setOf(lineAddr uint64) uint64 { return (lineAddr / c.lineBytes) % c.sets }

func (c *Cache) slot(set uint64, way int) *line { return &c.lines[set*uint64(c.ways)+uint64(way)] }

// numLines returns the slot count, whether or not lines is allocated yet.
func (c *Cache) numLines() int { return int(c.sets) * c.ways }

// touch allocates the line array on first use. The allocation lives in
// its own function so this check inlines into Access and Fill.
func (c *Cache) touch() {
	if c.lines == nil {
		c.allocLines()
	}
}

func (c *Cache) allocLines() {
	//lint:allow hotalloc runs once per cache, on its first access
	c.lines = make([]line, c.numLines())
}

// Access looks up addr. On a hit the line's recency is updated (and marked
// dirty for writes). On a miss an MSHR is allocated (Miss) or merged
// (MissMerged); Stall means the MSHR file is full. The caller is responsible
// for calling Fill once the memory fetch returns.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.touch()
	la := c.LineAddr(addr)
	set := c.setOf(la)
	c.useTick++
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if s.valid && s.tag == la {
			s.used = c.useTick
			if write {
				s.dirty = true
			}
			c.hits++
			if c.pr != nil {
				c.pr.hits.Inc()
			}
			return Hit
		}
	}
	if _, ok := c.mshrs[la]; ok {
		c.mshrs[la]++
		c.merged++
		if c.pr != nil {
			c.pr.merged.Inc()
		}
		return MissMerged
	}
	if len(c.mshrs) >= c.mshrCap {
		c.stalls++
		if c.pr != nil {
			c.pr.stalls.Inc()
		}
		return Stall
	}
	c.mshrs[la] = 1
	c.misses++
	if c.pr != nil {
		c.pr.misses.Inc()
		c.pr.mshr.Add(1)
	}
	return Miss
}

// Probe reports whether addr is resident without touching recency or
// counters (used by tests and the prime+probe baseline channel).
func (c *Cache) Probe(addr uint64) bool {
	if c.lines == nil {
		return false
	}
	la := c.LineAddr(addr)
	set := c.setOf(la)
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if s.valid && s.tag == la {
			return true
		}
	}
	return false
}

// Fill installs the line for addr (completing its MSHR if one is pending)
// and returns the number of merged requests that were waiting plus whether a
// dirty line was evicted (requiring a writeback). Filling an address with no
// pending MSHR is allowed (preloads use it) and returns waiters == 0.
func (c *Cache) Fill(addr uint64, write bool) (waiters int, writeback bool) {
	c.touch()
	la := c.LineAddr(addr)
	if n, ok := c.mshrs[la]; ok {
		waiters = n
		delete(c.mshrs, la)
		if c.pr != nil {
			c.pr.mshr.Add(-1)
		}
	}
	set := c.setOf(la)
	c.useTick++
	// Already resident (a racing preload): refresh recency only.
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if s.valid && s.tag == la {
			s.used = c.useTick
			if write {
				s.dirty = true
			}
			return waiters, false
		}
	}
	victim := 0
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if !s.valid {
			victim = w
			break
		}
		if s.used < c.slot(set, victim).used {
			victim = w
		}
	}
	v := c.slot(set, victim)
	if v.valid {
		c.evictions++
		if v.dirty {
			c.writebacks++
			writeback = true
		}
	}
	*v = line{valid: true, dirty: write, tag: la, used: c.useTick}
	return waiters, writeback
}

// Invalidate drops the line containing addr if resident, returning whether
// it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	if c.lines == nil {
		return false, false
	}
	la := c.LineAddr(addr)
	set := c.setOf(la)
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if s.valid && s.tag == la {
			present, dirty = true, s.dirty
			*s = line{}
			return
		}
	}
	return false, false
}

// PendingMSHRs returns the number of outstanding miss entries.
func (c *Cache) PendingMSHRs() int { return len(c.mshrs) }

// Sets returns the number of sets (for the prime+probe baseline).
func (c *Cache) Sets() int { return int(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return int(c.lineBytes) }

// Stats is a snapshot of the cache activity counters.
type Stats struct {
	Hits, Misses, Merged, Stalls, Evictions, Writebacks uint64
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	return Stats{c.hits, c.misses, c.merged, c.stalls, c.evictions, c.writebacks}
}
