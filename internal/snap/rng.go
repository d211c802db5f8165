package snap

import "math/rand"

// CountingSource wraps math/rand's seeded source and counts raw 64-bit
// draws. Because every RNG stream in the simulator is derived from a seed
// that is itself derivable from the configuration, the stream's position
// snapshots as a single number: restore rebuilds the source from the same
// seed and discards the counted draws.
//
// The underlying source is built on the first draw, not at construction:
// seeding a math/rand source fills a 607-word table, and an engine holds
// one source per SM and per L2 slice, most of which a run never draws from.
type CountingSource struct {
	src  rand.Source64 // nil until the first draw
	seed int64
	n    uint64
}

// NewCountingSource returns a counting source that draws like
// rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{seed: seed}
}

// source returns the seeded underlying source, building it on first use.
// The build lives in its own function so this check inlines into the draws.
func (s *CountingSource) source() rand.Source64 {
	if s.src == nil {
		s.build()
	}
	return s.src
}

func (s *CountingSource) build() { s.src = rand.NewSource(s.seed).(rand.Source64) }

// Int63 draws 63 uniform bits, counting one draw.
func (s *CountingSource) Int63() int64 {
	s.n++
	return s.source().Int63()
}

// Uint64 draws 64 uniform bits, counting one draw.
func (s *CountingSource) Uint64() uint64 {
	s.n++
	return s.source().Uint64()
}

// Seed reseeds the source and resets the draw count. A source that has
// never been drawn from stays unbuilt.
func (s *CountingSource) Seed(seed int64) {
	if s.src != nil {
		s.src.Seed(seed)
	}
	s.seed = seed
	s.n = 0
}

// Draws returns the number of raw draws made so far; this is the stream's
// snapshot state.
func (s *CountingSource) Draws() uint64 { return s.n }

// SeekTo advances a freshly seeded source until exactly n draws have been
// made, restoring the stream position recorded by Draws. It reseeds with
// the construction seed first, so it is safe to call on a source that has
// already been used.
func (s *CountingSource) SeekTo(n uint64) {
	s.Seed(s.seed)
	for s.n < n {
		s.source().Uint64()
		s.n++
	}
}
