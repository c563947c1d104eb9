package randtest

import (
	"bytes"
	"encoding/hex"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
)

// wireSampleTrace exercises every op kind and every Op field with
// distinct values, so the golden bytes pin every field the codec writes.
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

// TestTraceWireDeterministic pins the property content hashes rest
// on: encoding the same trace twice yields the same bytes.
func TestTraceWireDeterministic(t *testing.T) {
	tr := wireSampleTrace()
	if !bytes.Equal(EncodeTrace(tr), EncodeTrace(tr)) {
		t.Fatal("encoding the same trace twice produced different bytes")
	}
}

// goldenTraceHex is EncodeTrace(wireSampleTrace()) at TraceWireVersion
// 1. Any change to the byte layout fails this test: bump
// TraceWireVersion and recapture it together.
const goldenTraceHex = "6768747201150002b4a420000000000000000000000000000000000104b4a420" +
	"000000000000000000000000000000000200b5a4200000000000010000000000" +
	"00000000000300b6a420000000000000000000000000000000000400b6a42000" +
	"0000000000000000000000000000000500b7a420030000000000000000000000" +
	"000000000600b7a420000000000000000000000000000000000700c0a4200700" +
	"0000000000000000000000000000080000021100000000000000000000000000" +
	"00090000001102000000000000000000000000000b0000051102000000000000" +
	"000000000000000c00d0a4208080401102004000000000000000000000000d00" +
	"0000110200000000000000000000000000100000001102000000000000000001" +
	"80800101adbd030011000000110200000000000000000000000002010406edfd" +
	"030002002a1200e0a42000000099010000000000000000000000000f00000011" +
	"02000000000000000000000000000e0000001102000000000000000000000000" +
	"00130000000000000000ffff0101020380808080802000000000001400b5a420" +
	"000000000001000000000000000000000a000000110000000000000000000000" +
	"000000"

// TestTraceWireGolden pins the byte layout against an encoding captured
// at TraceWireVersion 1.
func TestTraceWireGolden(t *testing.T) {
	if TraceWireVersion != 1 {
		t.Fatalf("TraceWireVersion is %d: recapture goldenTraceHex for it", TraceWireVersion)
	}
	if got := hex.EncodeToString(EncodeTrace(wireSampleTrace())); got != goldenTraceHex {
		t.Fatalf("trace encoding changed without a version bump:\ngot  %s\nwant %s", got, goldenTraceHex)
	}
}

// TestTraceWireNil pins that a nil trace encodes as an empty one.
func TestTraceWireNil(t *testing.T) {
	if !bytes.Equal(EncodeTrace(nil), EncodeTrace(&Trace{})) {
		t.Fatal("a nil trace and an empty trace encode differently")
	}
}

// TestHostileTraceReplay replays traces that crashed a replay before
// Replay was hardened: ops on CPUs the system does not have, guest
// programs naming registers outside the register file, and topups of 0
// and 1<<40 pages. Each must replay on a fresh boot without a panic.
func TestHostileTraceReplay(t *testing.T) {
	// vm boots VM handle 1 with one initialised vCPU, so the hostile op
	// that follows reaches the hypercall it targets.
	vm := func(ops ...Op) []Op {
		return append([]Op{
			{Kind: OpInitVM, Nr: 1, H: 1},
			{Kind: OpInitVCPU, H: 1},
		}, ops...)
	}
	badProg := func(in hyp.Insn) []Op {
		return vm(
			Op{Kind: OpLoadProgram, H: 1, Prog: []hyp.Insn{in}},
			Op{Kind: OpLoad, H: 1},
			Op{Kind: OpRun},
		)
	}
	for _, tc := range []struct {
		name string
		ops  []Op
	}{
		{"share on cpu 1<<20", []Op{{Kind: OpShare, CPU: 1 << 20, PFN: 0x81000}}},
		{"share on cpu -3", []Op{{Kind: OpShare, CPU: -3, PFN: 0x81000}}},
		{"hvc on cpu 99", []Op{{Kind: OpHVCRaw, CPU: 99, HC: hyp.HCHostShareHyp}}},
		{"fault on cpu -1", []Op{{Kind: OpFaultAgain, CPU: -1, PFN: 0x81000}}},
		{"guest dst register 16", badProg(hyp.Insn{Dst: arch.NumGPRs})},
		{"guest src register -1", badProg(hyp.Insn{Src: -1})},
		{"topup of 0 pages", vm(Op{Kind: OpTopup, H: 1, Nr: 0})},
		{"topup of 1<<40 pages", vm(Op{Kind: OpTopup, H: 1, Nr: 1 << 40})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hv, err := hyp.New(hyp.Config{})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			Replay(proxy.New(hv), &Trace{Ops: tc.ops})
		})
	}
}
