// Package snap is the versioned deterministic binary codec behind engine
// checkpoints (engine.GPU.Snapshot/Restore, mesh.Mesh.Snapshot/Restore).
// It is a leaf package: nothing but the standard library, so every layer of
// the simulator may use it.
//
// # Encoding rules
//
// The format is a flat little-endian byte stream framed by a fixed header
// (magic, format version, configuration hash) and a trailing CRC-32C. The
// contract that makes snapshots comparable byte-for-byte:
//
//   - every field is written in a fixed order decided by the component that
//     owns it — there is no reflection and no schema negotiation;
//   - map contents are always emitted in sorted key order (the determinism
//     lint bans unsorted map ranges on result paths, and a snapshot is a
//     result path);
//   - section marks (Mark/Expect) frame each component so an encode/decode
//     skew fails fast at the component boundary instead of mis-restoring
//     silently.
//
// # Versioning rules
//
// Version is bumped on any change to the byte layout — adding a field,
// reordering sections, changing a width. There is no in-place migration:
// a snapshot from another version fails with ErrVersion (checkpoints are
// caches of computation, so the recovery is always "re-run from cycle 0").
// A payload that fails the CRC or runs short fails with ErrCorrupt, and a
// snapshot taken under a different configuration fails with
// ErrConfigMismatch; none of these can silently mis-restore.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies a gpunoc snapshot ("GNOC" little-endian).
const Magic uint32 = 0x434f4e47

// Version is the current snapshot format version. Bump it on any layout
// change; old snapshots are rejected, never migrated.
const Version uint32 = 1

// ErrVersion is returned when a snapshot's format version does not match
// Version exactly.
var ErrVersion = errors.New("snap: snapshot format version mismatch")

// ErrCorrupt is returned when a snapshot fails its CRC, runs out of bytes
// mid-decode, ends with trailing garbage, or misses a section mark.
var ErrCorrupt = errors.New("snap: snapshot corrupt")

// ErrConfigMismatch is returned when a snapshot was taken under a different
// configuration hash than the one it is being restored into.
var ErrConfigMismatch = errors.New("snap: snapshot configuration mismatch")

// checksum computes the CRC-32C of a payload (crc32 caches the Castagnoli
// table internally, so this allocates nothing after the first call).
func checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
}

// headerLen is the encoded size of the fixed header: magic, version, config
// hash, payload length.
const headerLen = 4 + 4 + 8 + 8

// Encoder accumulates a snapshot payload. Create one with NewEncoder, write
// fields in a fixed order, and call Finish to frame the payload with the
// header and CRC.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with room for the header already reserved.
func NewEncoder() *Encoder {
	return NewEncoderSize(0)
}

// NewEncoderSize is NewEncoder with room for a snapshot of about size bytes
// before the buffer regrows. Callers that checkpoint repeatedly pass the
// length of their previous blob: a large engine's snapshot runs to megabytes,
// and regrowing from a small buffer copies it many times over. The hint only
// sizes the buffer; the bytes encoded are the same for any size.
func NewEncoderSize(size int) *Encoder {
	return &Encoder{buf: make([]byte, headerLen, max(4096, size+size/8))}
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as a little-endian int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Mark frames the start of a named section. Decoder.Expect with the same
// name must match, which turns encode/decode skew into a fast ErrCorrupt at
// the section boundary.
func (e *Encoder) Mark(name string) {
	e.U32(sectionTag(name))
}

// Finish frames the payload with the header (magic, version, configHash,
// payload length) and the trailing CRC-32C and returns the snapshot bytes.
// The encoder must not be reused afterwards.
func (e *Encoder) Finish(configHash uint64) []byte {
	payload := e.buf[headerLen:]
	binary.LittleEndian.PutUint32(e.buf[0:], Magic)
	binary.LittleEndian.PutUint32(e.buf[4:], Version)
	binary.LittleEndian.PutUint64(e.buf[8:], configHash)
	binary.LittleEndian.PutUint64(e.buf[16:], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(e.buf, checksum(payload))
}

// Decoder reads a snapshot payload with a sticky error: after the first
// failed read every subsequent read returns zero values, and Close reports
// the error once. This keeps component restore code free of per-field error
// handling without ever mis-restoring (the caller must check Close).
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder validates the header of a snapshot — magic, version, config
// hash, payload length, CRC — and returns a decoder positioned at the first
// payload byte. The error is ErrVersion, ErrConfigMismatch, or ErrCorrupt
// (wrapped with detail).
func NewDecoder(data []byte, wantConfigHash uint64) (*Decoder, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrCorrupt, len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: snapshot has format version %d, this build reads %d", ErrVersion, v, Version)
	}
	if h := binary.LittleEndian.Uint64(data[8:]); h != wantConfigHash {
		return nil, fmt.Errorf("%w: snapshot config hash %#x, restoring config hashes %#x", ErrConfigMismatch, h, wantConfigHash)
	}
	plen := binary.LittleEndian.Uint64(data[16:])
	if uint64(len(data)) != headerLen+plen+4 {
		return nil, fmt.Errorf("%w: header declares %d payload bytes, %d present", ErrCorrupt, plen, len(data)-headerLen-4)
	}
	payload := data[headerLen : headerLen+plen]
	want := binary.LittleEndian.Uint32(data[headerLen+plen:])
	if got := checksum(payload); got != want {
		return nil, fmt.Errorf("%w: CRC %#x, expected %#x", ErrCorrupt, got, want)
	}
	return &Decoder{data: payload}, nil
}

// fail records the first decode error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n payload bytes, or nil after exhaustion.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail(fmt.Errorf("%w: payload exhausted at offset %d (want %d more bytes)", ErrCorrupt, d.off, n))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 from its IEEE-754 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail(fmt.Errorf("%w: string length %d exceeds remaining payload", ErrCorrupt, n))
		return ""
	}
	return string(d.take(int(n)))
}

// Blob reads a length-prefixed byte slice (a copy of the payload bytes).
func (d *Decoder) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail(fmt.Errorf("%w: blob length %d exceeds remaining payload", ErrCorrupt, n))
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}

// Expect consumes a section mark and fails the decoder when it does not
// match the named section written by Encoder.Mark.
func (d *Decoder) Expect(name string) {
	want := sectionTag(name)
	if got := d.U32(); d.err == nil && got != want {
		d.fail(fmt.Errorf("%w: section mark %#x where %q (%#x) was expected", ErrCorrupt, got, name, want))
	}
}

// Len validates a decoded element count against the remaining payload (each
// element needs at least one byte), guarding slice pre-allocations against
// corrupt length prefixes.
func (d *Decoder) Len() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail(fmt.Errorf("%w: length prefix %d exceeds remaining payload", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// Close verifies the whole payload was consumed and returns the first
// decode error, if any.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.data)-d.off)
	}
	return nil
}

// Err returns the sticky decode error without the end-of-payload check.
func (d *Decoder) Err() error { return d.err }

// Corruptf builds an ErrCorrupt-wrapped error for structural mismatches
// detected by component restore code (counts that disagree with the
// constructed topology, policies that disagree with the configuration).
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// sectionTag hashes a section name to the 32-bit mark written by Mark
// (FNV-1a; names are short and fixed, collisions across the handful of
// component names are not a practical concern).
func sectionTag(name string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return h
}
