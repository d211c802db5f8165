package cache

import (
	"bytes"
	"testing"

	"gpunoc/internal/snap"
)

func snapshotBytes(c *Cache) []byte {
	e := snap.NewEncoder()
	c.Snapshot(e)
	return e.Finish(0)
}

// TestUntouchedCacheSnapshot pins the lazy line array: New allocates no
// lines, Probe and Invalidate on an untouched cache leave it unallocated,
// its snapshot equals that of an allocated cache with every line invalid,
// and Restore allocates the array.
func TestUntouchedCacheSnapshot(t *testing.T) {
	lazy := mk(t, 4096, 64, 4, 4)
	lazy.Probe(0x40)
	lazy.Invalidate(0x40)
	if lazy.lines != nil {
		t.Fatal("untouched cache allocated its line array")
	}
	eager := mk(t, 4096, 64, 4, 4)
	eager.touch()

	got := snapshotBytes(lazy)
	if lazy.lines != nil {
		t.Fatal("Snapshot allocated the line array")
	}
	if want := snapshotBytes(eager); !bytes.Equal(got, want) {
		t.Fatal("untouched cache snapshot differs from an all-invalid allocated one")
	}

	rest := mk(t, 4096, 64, 4, 4)
	d, err := snap.NewDecoder(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.Restore(d); err != nil {
		t.Fatal(err)
	}
	if len(rest.lines) != rest.numLines() {
		t.Fatalf("restored cache holds %d lines, want %d", len(rest.lines), rest.numLines())
	}
	if r := rest.Access(0x40, false); r != Miss {
		t.Fatalf("access after restore: %v, want miss", r)
	}
}
