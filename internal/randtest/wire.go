// Trace wire codec: a deterministic, versioned binary encoding of
// recorded operation traces, the unit the distributed campaign fleet
// (internal/fleet) ships between workers and the coordinator. Two
// properties are load-bearing and tested:
//
//   - determinism: encoding the same trace always yields the same
//     bytes (every field is written unconditionally, in declaration
//     order, with no maps involved), so content hashes of encoded
//     traces are stable across processes and machines — the basis of
//     fleet-level finding dedup and corpus-entry dedup;
//   - versioning: the header carries a format version, and decoding
//     rejects versions it does not know with ErrWireVersion instead of
//     misparsing — a fleet mixing binaries from different commits
//     fails loudly at the first exchange.
package randtest

import (
	"errors"
	"fmt"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/wire"
)

// TraceWireVersion is the current trace encoding version. Bump it on
// any change to the Op field set or the byte layout; decoders reject
// anything else.
const TraceWireVersion = 1

// traceMagic guards against feeding arbitrary bytes to the decoder.
var traceMagic = [4]byte{'g', 'h', 't', 'r'}

// ErrWireVersion reports a version-skew rejection: the bytes are a
// trace, but from a codec revision this binary does not speak.
var ErrWireVersion = errors.New("randtest: trace wire version mismatch")

// EncodeTrace renders the trace into the versioned wire form. A nil
// trace encodes as an empty trace.
func EncodeTrace(tr *Trace) []byte {
	buf := make([]byte, 0, 16+tr.Len()*24)
	buf = wire.AppendHeader(buf, traceMagic, TraceWireVersion)
	buf = wire.AppendUvarint(buf, uint64(tr.Len()))
	if tr != nil {
		for _, op := range tr.Ops {
			buf = appendOp(buf, op)
		}
	}
	return buf
}

// DecodeTrace parses the wire form back into a trace. The decode is
// strict: bad magic, unknown version, truncation, trailing bytes, and
// guest-program register indices outside [0, arch.NumGPRs) are all
// errors.
func DecodeTrace(data []byte) (*Trace, error) {
	r := wire.NewReader(data)
	if err := r.Header(traceMagic, TraceWireVersion, ErrWireVersion, "trace"); err != nil {
		return nil, err
	}
	n := r.Uvarint()
	tr := &Trace{}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		tr.Ops = append(tr.Ops, readOp(r))
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return tr, nil
}

// appendOp writes every Op field unconditionally in declaration order —
// sparser encodings would be smaller but would make the byte layout
// depend on the op kind, a needless hazard for determinism reviews.
func appendOp(buf []byte, op Op) []byte {
	buf = append(buf, byte(op.Kind))
	buf = wire.AppendVarint(buf, int64(op.CPU))
	buf = wire.AppendUvarint(buf, uint64(op.PFN))
	buf = wire.AppendUvarint(buf, op.Nr)
	buf = wire.AppendUvarint(buf, uint64(op.H))
	buf = wire.AppendVarint(buf, int64(op.VCPU))
	buf = wire.AppendUvarint(buf, op.GFN)
	buf = wire.AppendUvarint(buf, op.Off)
	buf = wire.AppendBool(buf, op.Write)
	buf = wire.AppendUvarint(buf, uint64(op.HC))
	for _, a := range op.Args {
		buf = wire.AppendUvarint(buf, a)
	}
	buf = append(buf, byte(op.Guest.Kind))
	buf = wire.AppendUvarint(buf, uint64(op.Guest.IPA))
	buf = wire.AppendBool(buf, op.Guest.Write)
	buf = wire.AppendUvarint(buf, op.Guest.Value)
	buf = wire.AppendUvarint(buf, uint64(len(op.Prog)))
	for _, in := range op.Prog {
		buf = append(buf, byte(in.Op))
		buf = wire.AppendVarint(buf, int64(in.Dst))
		buf = wire.AppendVarint(buf, int64(in.Src))
		buf = wire.AppendUvarint(buf, in.Imm)
	}
	return buf
}

// readOp is appendOp's inverse.
func readOp(r *wire.Reader) Op {
	var op Op
	op.Kind = OpKind(r.Byte())
	op.CPU = int(r.Varint())
	op.PFN = arch.PFN(r.Uvarint())
	op.Nr = r.Uvarint()
	op.H = hyp.Handle(r.Uvarint())
	op.VCPU = int(r.Varint())
	op.GFN = r.Uvarint()
	op.Off = r.Uvarint()
	op.Write = r.Bool()
	op.HC = hyp.HC(r.Uvarint())
	for i := range op.Args {
		op.Args[i] = r.Uvarint()
	}
	op.Guest.Kind = hyp.GuestOpKind(r.Byte())
	op.Guest.IPA = arch.IPA(r.Uvarint())
	op.Guest.Write = r.Bool()
	op.Guest.Value = r.Uvarint()
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var in hyp.Insn
		in.Op = hyp.Op(r.Byte())
		in.Dst = readReg(r)
		in.Src = readReg(r)
		in.Imm = r.Uvarint()
		op.Prog = append(op.Prog, in)
	}
	return op
}

// readReg reads a guest-program register index. The guest interpreter
// indexes its register file with it, so an out-of-range index from the
// network would crash the process that replays the trace.
func readReg(r *wire.Reader) int {
	v := r.Varint()
	if v < 0 || v >= arch.NumGPRs {
		r.Fail(fmt.Errorf("randtest: guest register index %d outside [0, %d)", v, arch.NumGPRs))
		return 0
	}
	return int(v)
}
