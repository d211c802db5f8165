package snap

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// roundTrip encodes a representative payload and returns the snapshot
// bytes (config hash 0xabcd).
func roundTrip(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	e.Mark("header")
	e.U8(7)
	e.Bool(true)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(12345)
	e.F64(3.25)
	e.String("covert")
	e.Blob([]byte{1, 2, 3})
	return e.Finish(0xabcd)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := roundTrip(t)
	d, err := NewDecoder(data, 0xabcd)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Expect("header")
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if !d.Bool() {
		t.Error("Bool = false, want true")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 12345 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "covert" {
		t.Errorf("String = %q", got)
	}
	b := d.Blob()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Blob = %v", b)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestVersionSkewFailsTyped(t *testing.T) {
	data := roundTrip(t)
	binary.LittleEndian.PutUint32(data[4:], Version+1)
	_, err := NewDecoder(data, 0xabcd)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("bumped version: err = %v, want ErrVersion", err)
	}
}

func TestConfigMismatchFailsTyped(t *testing.T) {
	data := roundTrip(t)
	_, err := NewDecoder(data, 0x9999)
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("wrong config hash: err = %v, want ErrConfigMismatch", err)
	}
}

func TestTruncationFailsTyped(t *testing.T) {
	data := roundTrip(t)
	for _, n := range []int{0, 4, headerLen, len(data) - 1} {
		if _, err := NewDecoder(data[:n], 0xabcd); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestBitFlipFailsCRC(t *testing.T) {
	data := roundTrip(t)
	data[headerLen+3] ^= 0x40
	if _, err := NewDecoder(data, 0xabcd); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicFails(t *testing.T) {
	data := roundTrip(t)
	data[0] ^= 0xff
	if _, err := NewDecoder(data, 0xabcd); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
}

func TestSectionMarkMismatch(t *testing.T) {
	e := NewEncoder()
	e.Mark("links")
	e.U64(9)
	data := e.Finish(1)
	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Expect("slices")
	if err := d.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mark mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestTrailingBytesFail(t *testing.T) {
	data := roundTrip(t)
	d, err := NewDecoder(data, 0xabcd)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Expect("header")
	d.U8()
	if err := d.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial read: err = %v, want ErrCorrupt", err)
	}
}

func TestStickyErrorStopsReads(t *testing.T) {
	e := NewEncoder()
	e.U8(1)
	data := e.Finish(1)
	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.U64() // runs off the end
	if d.Err() == nil {
		t.Fatal("over-read did not set the sticky error")
	}
	if got := d.String(); got != "" {
		t.Errorf("read after error returned %q, want zero value", got)
	}
}

func TestLenRejectsOversizedPrefix(t *testing.T) {
	e := NewEncoder()
	e.U64(1 << 40) // a length no payload could back
	data := e.Finish(1)
	d, err := NewDecoder(data, 1)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if n := d.Len(); n != 0 {
		t.Errorf("Len = %d, want 0 on corrupt prefix", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", d.Err())
	}
}

func TestCountingSourceMatchesPlainSource(t *testing.T) {
	cs := NewCountingSource(99)
	plain := rand.New(rand.NewSource(99))
	counted := rand.New(cs)
	for i := 0; i < 100; i++ {
		if a, b := counted.Intn(37), plain.Intn(37); a != b {
			t.Fatalf("draw %d: counted %d, plain %d", i, a, b)
		}
	}
	if cs.Draws() == 0 {
		t.Fatal("no draws counted")
	}
}

func TestCountingSourceSeekTo(t *testing.T) {
	cs := NewCountingSource(7)
	r := rand.New(cs)
	for i := 0; i < 53; i++ {
		r.Intn(1000)
	}
	draws := cs.Draws()
	next := make([]int, 10)
	for i := range next {
		next[i] = r.Intn(1000)
	}

	cs2 := NewCountingSource(7)
	cs2.SeekTo(draws)
	if cs2.Draws() != draws {
		t.Fatalf("SeekTo left draws=%d, want %d", cs2.Draws(), draws)
	}
	r2 := rand.New(cs2)
	for i := range next {
		if got := r2.Intn(1000); got != next[i] {
			t.Fatalf("draw %d after SeekTo: got %d, want %d", i, got, next[i])
		}
	}
}

// TestCountingSourceLazyMatchesEager pins the lazily built source against an
// eagerly seeded math/rand source: identical draws from the start, after a
// forward SeekTo on a fresh source, after a SeekTo that rewinds a used one,
// and after Seed. SeekTo(0) and Seed on a source nobody has drawn from must
// leave it unbuilt.
func TestCountingSourceLazyMatchesEager(t *testing.T) {
	const seed = 20261017
	eagerAt := func(skip int) *rand.Rand {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < skip; i++ {
			r.Uint64()
		}
		return r
	}
	same := func(what string, lazy *CountingSource, eager *rand.Rand) {
		t.Helper()
		r := rand.New(lazy)
		for i := 0; i < 200; i++ {
			if a, b := r.Int63(), eager.Int63(); a != b {
				t.Fatalf("%s: draw %d: lazy %d, eager %d", what, i, a, b)
			}
		}
	}

	fresh := NewCountingSource(seed)
	fresh.SeekTo(0)
	fresh.Seed(seed)
	if fresh.src != nil {
		t.Fatal("SeekTo(0) or Seed built the source of a never-drawn stream")
	}
	same("fresh", fresh, eagerAt(0))

	forward := NewCountingSource(seed)
	forward.SeekTo(75)
	same("forward SeekTo", forward, eagerAt(75))

	rewound := NewCountingSource(seed)
	rand.New(rewound).Perm(50)
	rewound.SeekTo(30)
	same("rewinding SeekTo", rewound, eagerAt(30))

	reseeded := NewCountingSource(1)
	rand.New(reseeded).Uint64()
	reseeded.Seed(seed)
	same("Seed", reseeded, eagerAt(0))
}
