// Trace wire codec: a deterministic, versioned binary encoding of
// recorded operation traces, used to content-hash them (perfbench
// digests its workload set-ups with it). Encoding the same trace
// always yields the same bytes: every field is written
// unconditionally, in declaration order, with no maps involved, so a
// hash of an encoded trace is stable across processes and machines.
// The header carries a magic and a format version, so a change to the
// layout changes every hash rather than colliding with the old ones.
package randtest

import "encoding/binary"

// TraceWireVersion is the current trace encoding version. Bump it on
// any change to the Op field set or the byte layout.
const TraceWireVersion = 1

// traceMagic opens every encoded trace.
var traceMagic = [4]byte{'g', 'h', 't', 'r'}

// EncodeTrace renders the trace into the versioned wire form. A nil
// trace encodes as an empty trace.
func EncodeTrace(tr *Trace) []byte {
	buf := make([]byte, 0, 16+tr.Len()*24)
	buf = append(buf, traceMagic[:]...)
	buf = append(buf, TraceWireVersion)
	buf = binary.AppendUvarint(buf, uint64(tr.Len()))
	if tr != nil {
		for _, op := range tr.Ops {
			buf = appendOp(buf, op)
		}
	}
	return buf
}

// appendOp writes every Op field unconditionally in declaration order —
// sparser encodings would be smaller but would make the byte layout
// depend on the op kind, a needless hazard for determinism reviews.
func appendOp(buf []byte, op Op) []byte {
	buf = append(buf, byte(op.Kind))
	buf = binary.AppendVarint(buf, int64(op.CPU))
	buf = binary.AppendUvarint(buf, uint64(op.PFN))
	buf = binary.AppendUvarint(buf, op.Nr)
	buf = binary.AppendUvarint(buf, uint64(op.H))
	buf = binary.AppendVarint(buf, int64(op.VCPU))
	buf = binary.AppendUvarint(buf, op.GFN)
	buf = binary.AppendUvarint(buf, op.Off)
	buf = appendBool(buf, op.Write)
	buf = binary.AppendUvarint(buf, uint64(op.HC))
	for _, a := range op.Args {
		buf = binary.AppendUvarint(buf, a)
	}
	buf = append(buf, byte(op.Guest.Kind))
	buf = binary.AppendUvarint(buf, uint64(op.Guest.IPA))
	buf = appendBool(buf, op.Guest.Write)
	buf = binary.AppendUvarint(buf, op.Guest.Value)
	buf = binary.AppendUvarint(buf, uint64(len(op.Prog)))
	for _, in := range op.Prog {
		buf = append(buf, byte(in.Op))
		buf = binary.AppendVarint(buf, int64(in.Dst))
		buf = binary.AppendVarint(buf, int64(in.Src))
		buf = binary.AppendUvarint(buf, in.Imm)
	}
	return buf
}

// appendBool writes v as one byte, 0 or 1.
func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}
