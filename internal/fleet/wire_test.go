package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
)

func archPFN(v uint64) arch.PFN     { return arch.PFN(v) }
func hypHandle(v uint32) hyp.Handle { return hyp.Handle(v) }

func sampleTrace(pfnBase uint64, handle uint32) *randtest.Trace {
	return &randtest.Trace{Ops: []randtest.Op{
		{Kind: randtest.OpAlloc, CPU: 1, PFN: archPFN(pfnBase)},
		{Kind: randtest.OpShare, PFN: archPFN(pfnBase)},
		{Kind: randtest.OpInitVM, Nr: 2, H: hypHandle(handle)},
		{Kind: randtest.OpUnshare, PFN: archPFN(pfnBase)},
		{Kind: randtest.OpTouch, PFN: archPFN(pfnBase + 1), Write: true},
		{Kind: randtest.OpTeardown, H: hypHandle(handle)},
	}}
}

func sampleFinding() Finding {
	return Finding{
		Worker: 3, Exec: 12345, Seed: -77, FromCorpus: true,
		Reproducible: true, ShrinkReplays: 210,
		Failures:    []string{"lock not held: vmlock", "stale TLB entry"},
		MinFailures: []string{"lock not held: vmlock"},
		Trace:       sampleTrace(0x81000, 0x11),
		Min:         sampleTrace(0x82000, 0x21),
		Sched:       &sched.Schedule{Steps: []sched.Step{{VCPU: 0, Point: 9}, {VCPU: 2, Point: 4}}},
		MinSched:    &sched.Schedule{Steps: []sched.Step{{VCPU: 2, Point: 4}}},
		SchedSeed:   0x5ced5eed,
		SchedErr:    "stream 1 panic: deadlock",
	}
}

// TestCorpusEntryRoundTrip pins byte-identical corpus-entry encoding,
// fractional novelty score included.
func TestCorpusEntryRoundTrip(t *testing.T) {
	entry := CorpusEntry{Score: 3.75, Trace: sampleTrace(0x81000, 0x11)}
	blob := entry.Encode()
	got, err := DecodeCorpusEntry(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Score != entry.Score {
		t.Errorf("score %v -> %v", entry.Score, got.Score)
	}
	if got.Trace.String() != entry.Trace.String() {
		t.Errorf("trace changed:\nwant:\n%s\ngot:\n%s", entry.Trace, got.Trace)
	}
	if reblob := got.Encode(); !bytes.Equal(blob, reblob) {
		t.Error("re-encoding the decoded entry is not byte-identical")
	}
}

// TestFindingRoundTrip pins byte-identical finding encoding with every
// field set, schedules included.
func TestFindingRoundTrip(t *testing.T) {
	f := sampleFinding()
	blob := f.Encode()
	got, err := DecodeFinding(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Worker != f.Worker || got.Exec != f.Exec || got.Seed != f.Seed ||
		got.FromCorpus != f.FromCorpus || got.Reproducible != f.Reproducible ||
		got.ShrinkReplays != f.ShrinkReplays || got.SchedSeed != f.SchedSeed ||
		got.SchedErr != f.SchedErr {
		t.Errorf("scalar fields changed: %+v vs %+v", got, f)
	}
	if len(got.Failures) != 2 || got.Failures[0] != f.Failures[0] {
		t.Errorf("failures changed: %v", got.Failures)
	}
	if got.Min.String() != f.Min.String() || got.Trace.String() != f.Trace.String() {
		t.Error("traces changed across round-trip")
	}
	if got.Sched == nil || got.MinSched == nil ||
		len(got.Sched.Steps) != 2 || got.Sched.Steps[1] != f.Sched.Steps[1] ||
		len(got.MinSched.Steps) != 1 {
		t.Errorf("schedules changed: %+v / %+v", got.Sched, got.MinSched)
	}
	if reblob := got.Encode(); !bytes.Equal(blob, reblob) {
		t.Error("re-encoding the decoded finding is not byte-identical")
	}
}

// Golden encodings at WireVersion 1 of the sample corpus entry and
// finding. Any change to the envelope or trace layout fails
// TestFleetWireGolden: bump the version and recapture them together.
const (
	goldenCorpusHex = "67686373018080808080808087408001676874720106000280a0200000000000" +
		"0000000000000000000000030080a02000000000000000000000000000000000" +
		"08000002110000000000000000000000000000040080a0200000000000000000" +
		"0000000000000000020081a020000000000001000000000000000000000a0000" +
		"00110000000000000000000000000000"
	goldenFindingHex = "676866640106f2c00199010101a40302156c6f636b206e6f742068656c643a20" +
		"766d6c6f636b0f7374616c6520544c4220656e74727901156c6f636b206e6f74" +
		"2068656c643a20766d6c6f636b8001676874720106000280a020000000000000" +
		"00000000000000000000030080a0200000000000000000000000000000000008" +
		"000002110000000000000000000000000000040080a020000000000000000000" +
		"00000000000000020081a020000000000001000000000000000000000a000000" +
		"1100000000000000000000000000008001676874720106000280c02000000000" +
		"000000000000000000000000030080c020000000000000000000000000000000" +
		"0008000002210000000000000000000000000000040080c02000000000000000" +
		"000000000000000000020081c020000000000001000000000000000000000a00" +
		"000021000000000000000000000000000001020009040401010404dafbeace0b" +
		"1873747265616d20312070616e69633a20646561646c6f636b"
)

// TestFleetWireGolden pins the envelope byte layout against encodings
// captured before the codec was shared with the trace encoding.
func TestFleetWireGolden(t *testing.T) {
	if WireVersion != 1 || randtest.TraceWireVersion != 1 {
		t.Fatalf("wire versions are %d/%d: recapture the golden encodings for them",
			WireVersion, randtest.TraceWireVersion)
	}
	for name, c := range map[string]struct {
		blob []byte
		want string
	}{
		"corpus":  {CorpusEntry{Score: 3.75, Trace: sampleTrace(0x81000, 0x11)}.Encode(), goldenCorpusHex},
		"finding": {sampleFinding().Encode(), goldenFindingHex},
	} {
		if got := hex.EncodeToString(c.blob); got != c.want {
			t.Errorf("%s encoding changed without a version bump:\ngot  %s\nwant %s", name, got, c.want)
		}
	}
}

// TestFindingNilSchedules pins that a serial finding's nil schedules
// round-trip as nil, not as empty schedules.
func TestFindingNilSchedules(t *testing.T) {
	f := sampleFinding()
	f.Sched, f.MinSched = nil, nil
	got, err := DecodeFinding(f.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Sched != nil || got.MinSched != nil {
		t.Errorf("nil schedules decoded as %+v / %+v", got.Sched, got.MinSched)
	}
}

// TestFleetWireVersionSkew pins that both envelopes reject a version
// this binary does not speak, with ErrWireVersion.
func TestFleetWireVersionSkew(t *testing.T) {
	for name, blob := range map[string][]byte{
		"corpus":  CorpusEntry{Score: 1, Trace: sampleTrace(0x81000, 1)}.Encode(),
		"finding": sampleFinding().Encode(),
	} {
		blob[4] = WireVersion + 1 // version byte follows the 4-byte magic
		var err error
		if name == "corpus" {
			_, err = DecodeCorpusEntry(blob)
		} else {
			_, err = DecodeFinding(blob)
		}
		if !errors.Is(err, ErrWireVersion) {
			t.Errorf("%s: skewed version decoded with err=%v, want ErrWireVersion", name, err)
		}
	}
}

// TestFleetWireStrict pins truncation and trailing-garbage rejection
// for the envelopes (the trace codec has its own exhaustive twin).
func TestFleetWireStrict(t *testing.T) {
	blob := sampleFinding().Encode()
	for n := 0; n < len(blob); n += 7 {
		if _, err := DecodeFinding(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if _, err := DecodeFinding(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	if _, err := DecodeCorpusEntry(blob); err == nil {
		t.Error("finding blob decoded as a corpus entry")
	}
	if _, err := DecodeCorpusEntry(hostileCorpusEntry()); err == nil {
		t.Error("a blob length of 2^64-1 decoded without error")
	}
}

// hostileCorpusEntry is a corpus entry whose trace blob claims 2^64-1
// bytes — a length that wraps to -1 if converted to int unchecked.
func hostileCorpusEntry() []byte {
	b := append([]byte(nil), corpusMagic[:]...)
	b = append(b, WireVersion)
	b = binary.AppendUvarint(b, 0) // score
	return binary.AppendUvarint(b, ^uint64(0))
}

// FuzzDecodeCorpusEntry feeds arbitrary bytes to the corpus-entry
// decoder, which the coordinator runs on network input: it must never
// panic, and whatever it accepts must survive re-encoding.
func FuzzDecodeCorpusEntry(f *testing.F) {
	f.Add(CorpusEntry{Score: 3.75, Trace: sampleTrace(0x81000, 0x11)}.Encode())
	f.Add(CorpusEntry{Score: 1, Trace: &randtest.Trace{}}.Encode())
	f.Add(sampleFinding().Encode())
	f.Add(hostileCorpusEntry())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCorpusEntry(data)
		if err != nil {
			return
		}
		blob := c.Encode()
		again, err := DecodeCorpusEntry(blob)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		// Compared as bytes: the score may be a NaN.
		if !bytes.Equal(again.Encode(), blob) || !reflect.DeepEqual(again.Trace, c.Trace) {
			t.Fatalf("round trip changed the entry: %+v -> %+v", c, again)
		}
	})
}

// FuzzDecodeFinding is FuzzDecodeCorpusEntry for the finding envelope.
func FuzzDecodeFinding(f *testing.F) {
	f.Add(sampleFinding().Encode())
	nilSched := sampleFinding()
	nilSched.Sched, nilSched.MinSched, nilSched.Min = nil, nil, nil
	f.Add(nilSched.Encode())
	f.Add(CorpusEntry{Score: 3.75, Trace: sampleTrace(0x81000, 0x11)}.Encode())
	f.Add(hostileCorpusEntry())
	f.Fuzz(func(t *testing.T, data []byte) {
		fd, err := DecodeFinding(data)
		if err != nil {
			return
		}
		again, err := DecodeFinding(fd.Encode())
		if err != nil {
			t.Fatalf("re-encoded finding does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, fd) {
			t.Fatalf("round trip changed the finding: %+v -> %+v", fd, again)
		}
	})
}

// TestTraceHashCanonical pins the dedup normalization: the same op
// structure over different concrete frames and handles — two workers
// reproducing one bug — hashes identically, while a structural change
// does not.
func TestTraceHashCanonical(t *testing.T) {
	a := sampleTrace(0x81000, 0x11)
	b := sampleTrace(0x9f3c0, 0xbeef)
	if TraceHash(a) != TraceHash(b) {
		t.Error("renumbered-equivalent traces hash differently")
	}
	c := sampleTrace(0x81000, 0x11)
	c.Ops[0], c.Ops[1] = c.Ops[1], c.Ops[0]
	if TraceHash(a) == TraceHash(c) {
		t.Error("reordered trace hashes identically")
	}
	// Distinct frames must not collapse: alloc(p1),touch(p2) is not
	// alloc(p1),touch(p1).
	d := sampleTrace(0x81000, 0x11)
	d.Ops[4].PFN = d.Ops[0].PFN
	if TraceHash(a) == TraceHash(d) {
		t.Error("traces touching different frames hash identically")
	}
	// CPU placement is renumbered: the same op pattern issued from
	// different concrete CPUs collides, but same-CPU vs cross-CPU
	// structure stays distinct.
	e := sampleTrace(0x81000, 0x11)
	for i := range e.Ops {
		e.Ops[i].CPU = (e.Ops[i].CPU + 2) % 4 // consistent relabeling
	}
	if TraceHash(a) != TraceHash(e) {
		t.Error("CPU-relabeled trace hashes differently")
	}
	f := sampleTrace(0x81000, 0x11)
	f.Ops[1].CPU = f.Ops[0].CPU // share moves onto the alloc CPU
	if TraceHash(a) == TraceHash(f) {
		t.Error("cross-CPU and same-CPU traces hash identically")
	}
}

// TestDedupKeyFallback pins that a finding whose minimization came up
// empty dedups by its full trace instead.
func TestDedupKeyFallback(t *testing.T) {
	f := sampleFinding()
	f.Min = nil
	if f.DedupKey() != TraceHash(f.Trace) {
		t.Error("empty Min did not fall back to the full trace hash")
	}
	f = sampleFinding()
	if f.DedupKey() != TraceHash(f.Min) {
		t.Error("dedup key is not the minimized-trace hash")
	}
}
