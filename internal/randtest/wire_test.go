package randtest

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ghostspec/internal/hyp"
)

// wireSampleTrace exercises every op kind and every Op field with
// distinct values, so a field the codec forgot would break round-trip.
func wireSampleTrace() *Trace {
	return &Trace{Ops: []Op{
		{Kind: OpAlloc, CPU: 1, PFN: 0x81234},
		{Kind: OpFree, CPU: 2, PFN: 0x81234},
		{Kind: OpTouch, CPU: 0, PFN: 0x81235, Write: true},
		{Kind: OpShare, PFN: 0x81236},
		{Kind: OpUnshare, PFN: 0x81236},
		{Kind: OpDonate, PFN: 0x81237, Nr: 3},
		{Kind: OpReclaim, PFN: 0x81237},
		{Kind: OpShareRange, PFN: 0x81240, Nr: 7},
		{Kind: OpInitVM, Nr: 2, H: 0x11},
		{Kind: OpInitVCPU, H: 0x11, VCPU: 1},
		{Kind: OpTopup, H: 0x11, VCPU: 1, Nr: 5},
		{Kind: OpTopupRaw, H: 0x11, VCPU: 1, PFN: 0x81250, Off: 0x40, Nr: 1 << 20},
		{Kind: OpLoad, H: 0x11, VCPU: 1},
		{Kind: OpQueueGuest, H: 0x11, VCPU: 1,
			Guest: hyp.GuestOp{Kind: hyp.GuestAccess, IPA: 0x4000, Write: true, Value: 0xdead}},
		{Kind: OpLoadProgram, H: 0x11, VCPU: 1, Prog: []hyp.Insn{
			{Op: 1, Dst: 2, Src: 3, Imm: 0xfeed},
			{Op: 0, Dst: 1, Src: 0, Imm: 42},
		}},
		{Kind: OpMapGuest, PFN: 0x81260, GFN: 0x99},
		{Kind: OpRun, H: 0x11, VCPU: 1},
		{Kind: OpPut, H: 0x11, VCPU: 1},
		{Kind: OpHVCRaw, HC: hyp.HC(0x7fff), Args: [4]uint64{1, 2, 3, 1 << 40}},
		{Kind: OpFaultAgain, PFN: 0x81235, Write: true},
		{Kind: OpTeardown, H: 0x11},
	}}
}

// TestTraceWireRoundTrip pins the load-bearing properties: decoding an
// encoded trace reproduces it exactly, and re-encoding the decoded
// trace is byte-identical (determinism, the basis of fleet dedup).
func TestTraceWireRoundTrip(t *testing.T) {
	tr := wireSampleTrace()
	blob := EncodeTrace(tr)
	if again := EncodeTrace(tr); !bytes.Equal(blob, again) {
		t.Fatal("encoding the same trace twice produced different bytes")
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.String() != tr.String() {
		t.Fatalf("round-trip changed the trace:\nwant:\n%s\ngot:\n%s", tr, got)
	}
	if reblob := EncodeTrace(got); !bytes.Equal(blob, reblob) {
		t.Fatal("re-encoding the decoded trace is not byte-identical")
	}
}

// TestTraceWireNil pins that a nil trace encodes as a decodable empty
// trace (fleet findings may carry an empty Min).
func TestTraceWireNil(t *testing.T) {
	got, err := DecodeTrace(EncodeTrace(nil))
	if err != nil {
		t.Fatalf("decode(encode(nil)): %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("nil trace decoded to %d ops", got.Len())
	}
}

// TestTraceWireVersionSkew pins the loud rejection of a version this
// binary does not speak — the mixed-commit-fleet failure mode.
func TestTraceWireVersionSkew(t *testing.T) {
	blob := EncodeTrace(wireSampleTrace())
	blob[4] = TraceWireVersion + 1 // version byte follows the 4-byte magic
	if _, err := DecodeTrace(blob); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("skewed version decoded with err=%v, want ErrWireVersion", err)
	}
}

// TestTraceWireStrict pins that corruption never misparses silently:
// bad magic, every possible truncation, and trailing garbage all fail.
func TestTraceWireStrict(t *testing.T) {
	blob := EncodeTrace(wireSampleTrace())

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := DecodeTrace(bad); err == nil {
		t.Error("bad magic decoded without error")
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeTrace(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if _, err := DecodeTrace(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

// FuzzDecodeTrace feeds arbitrary bytes to the trace decoder: it must
// never panic, and whatever it accepts must re-encode and decode to an
// equal trace.
func FuzzDecodeTrace(f *testing.F) {
	f.Add(EncodeTrace(wireSampleTrace()))
	f.Add(EncodeTrace(nil))
	huge := append([]byte(nil), traceMagic[:]...)
	huge = append(huge, TraceWireVersion)
	f.Add(appendUvarint(huge, ^uint64(0))) // op count 2^64-1
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			return
		}
		again, err := DecodeTrace(EncodeTrace(tr))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n%s\n->\n%s", tr, again)
		}
	})
}
