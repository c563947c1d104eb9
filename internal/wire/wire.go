// Package wire holds the byte-level primitives of the project's
// versioned binary encodings: the randtest trace codec and the fleet
// envelopes around it. Every encoding starts with a 4-byte magic and a
// version byte, then a sequence of varints, bools and length-prefixed
// blobs, and ends with no trailing bytes.
//
// Decoding uses a Reader that latches the first error, so a decoder
// chains field reads without per-call checks and inspects Err once.
// Lengths read from the input are never trusted to size an allocation:
// a blob longer than the bytes left is a truncation error.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports input that ends inside a field.
var ErrTruncated = errors.New("wire: truncated blob")

// AppendHeader writes the magic and the version byte.
func AppendHeader(buf []byte, magic [4]byte, version byte) []byte {
	buf = append(buf, magic[:]...)
	return append(buf, version)
}

// AppendUvarint writes v as an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint writes v as a zig-zag signed varint.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendBool writes v as one byte, 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBlob writes a length-prefixed byte string.
func AppendBlob(buf, blob []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...)
}

// AppendString writes a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendStrings writes a count followed by each string.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// Reader is a cursor over an encoded blob. The first failed read
// latches an error; every later read returns a zero value.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches err unless an earlier error is already latched. Decoders
// use it to reject a value that parsed but is out of range.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Header reads and checks the magic and the version byte. A magic
// mismatch is an error naming what; a version mismatch wraps
// errVersion, so callers can match version skew with errors.Is.
func (r *Reader) Header(magic [4]byte, version byte, errVersion error, what string) error {
	var got [4]byte
	for i := range got {
		got[i] = r.Byte()
	}
	if r.err != nil {
		return r.err
	}
	if got != magic {
		r.Fail(fmt.Errorf("wire: not a %s blob (magic %q)", what, got))
		return r.err
	}
	if ver := r.Byte(); r.err == nil && ver != version {
		r.Fail(fmt.Errorf("%w: %s version %d, this binary speaks %d", errVersion, what, ver, version))
	}
	return r.err
}

// Finish returns the latched error, or an error if bytes remain unread.
func (r *Reader) Finish() error {
	if r.err == nil && r.pos != len(r.data) {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.data)-r.pos)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// Blob reads a length-prefixed byte string. The result aliases the
// input.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	// Compared unsigned: int(n) of a hostile length can wrap negative.
	if r.err != nil || n > uint64(len(r.data)-r.pos) {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }

// Strings reads a count followed by that many strings.
func (r *Reader) Strings() []string {
	n := r.Uvarint()
	var out []string
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	return out
}
