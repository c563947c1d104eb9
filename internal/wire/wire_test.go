package wire

import (
	"errors"
	"reflect"
	"testing"
)

var (
	testMagic      = [4]byte{'t', 'e', 's', 't'}
	errTestVersion = errors.New("test version mismatch")
)

func sampleBlob() []byte {
	buf := AppendHeader(nil, testMagic, 3)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendVarint(buf, -7)
	buf = AppendBool(buf, true)
	buf = AppendBlob(buf, []byte{1, 2, 3})
	buf = AppendString(buf, "s")
	return AppendStrings(buf, []string{"a", "", "bc"})
}

// TestReaderRoundTrip reads back every primitive the Append helpers
// write.
func TestReaderRoundTrip(t *testing.T) {
	r := NewReader(sampleBlob())
	if err := r.Header(testMagic, 3, errTestVersion, "test"); err != nil {
		t.Fatalf("header: %v", err)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if b := r.Blob(); !reflect.DeepEqual(b, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", b)
	}
	if s := r.String(); s != "s" {
		t.Errorf("String = %q", s)
	}
	if ss := r.Strings(); !reflect.DeepEqual(ss, []string{"a", "", "bc"}) {
		t.Errorf("Strings = %q", ss)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("finish: %v", err)
	}
}

// TestReaderRejects pins each rejection: a bad magic, version skew
// matchable with the caller's sentinel, every truncation, a blob
// length past the end (2^64-1 included), and trailing bytes.
func TestReaderRejects(t *testing.T) {
	blob := sampleBlob()
	decode := func(data []byte) error {
		r := NewReader(data)
		if err := r.Header(testMagic, 3, errTestVersion, "test"); err != nil {
			return err
		}
		r.Uvarint()
		r.Varint()
		r.Bool()
		r.Blob()
		_ = r.String()
		r.Strings()
		return r.Finish()
	}

	if err := decode(AppendHeader(nil, [4]byte{'x'}, 3)); err == nil || errors.Is(err, errTestVersion) {
		t.Errorf("bad magic: err = %v", err)
	}
	if err := decode(AppendHeader(nil, testMagic, 4)); !errors.Is(err, errTestVersion) {
		t.Errorf("version skew: err = %v, want errTestVersion", err)
	}
	for n := 0; n < len(blob); n++ {
		if err := decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if err := decode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	for _, n := range []uint64{4, ^uint64(0)} {
		r := NewReader(AppendUvarint(nil, n))
		if b := r.Blob(); b != nil || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("blob length %d past the end: got %v, err %v", n, b, r.Err())
		}
	}
}

// TestReaderLatchesFirstError pins that Fail keeps the first error and
// that reads after it return zero values.
func TestReaderLatchesFirstError(t *testing.T) {
	first := errors.New("first")
	r := NewReader(AppendUvarint(nil, 5))
	r.Fail(first)
	r.Fail(errors.New("second"))
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), first) {
		t.Errorf("after Fail: Uvarint = %d, err = %v", v, r.Err())
	}
	if err := r.Finish(); !errors.Is(err, first) {
		t.Errorf("Finish = %v, want the first error", err)
	}
}
