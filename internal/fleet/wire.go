// Package fleet distributes the campaign engine across processes and
// machines: a coordinator (an HTTP/JSON service) shards seed streams
// across registered workers, merges their coverage, synchronises novel
// corpus entries between them, and deduplicates findings by
// minimized-trace hash; workers wrap a campaign.Engine and stream
// batched exec/coverage/corpus/finding deltas back under heartbeat
// leases. ROADMAP item 1's "millions of executions per hour" story:
// the per-exec hot path never touches the network — everything crosses
// it in periodic batches.
//
// This file is the deterministic wire format for the payloads that
// must round-trip byte-identically: corpus entries (a trace plus its
// novelty score) and findings (trace, minimized trace, alarms, and the
// schedule pair for schedule-fuzz findings). Traces themselves ride
// the versioned randtest codec; the envelopes here add their own magic
// and version and reject skew the same way.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"ghostspec/internal/arch"
	"ghostspec/internal/campaign"
	"ghostspec/internal/hyp"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
)

// WireVersion is the fleet envelope version. It covers the corpus and
// finding encodings and the HTTP API shapes; a coordinator refuses
// registration from a worker speaking a different version.
const WireVersion = 1

var (
	corpusMagic  = [4]byte{'g', 'h', 'c', 's'}
	findingMagic = [4]byte{'g', 'h', 'f', 'd'}

	// ErrWireVersion reports envelope version skew (the trace-level
	// twin is randtest.ErrWireVersion).
	ErrWireVersion = errors.New("fleet: wire version mismatch")
)

// CorpusEntry is one shareable seed: a recorded trace and the novelty
// score it earned when it entered its worker's corpus. End-state
// snapshots deliberately do not travel — they are process-local memory
// images; a peer replays the trace once and captures its own.
type CorpusEntry struct {
	Score float64
	Trace *randtest.Trace
}

// Encode renders the entry in wire form.
func (c CorpusEntry) Encode() []byte {
	buf := make([]byte, 0, 32+c.Trace.Len()*24)
	buf = append(buf, corpusMagic[:]...)
	buf = append(buf, WireVersion)
	buf = binary.AppendUvarint(buf, math.Float64bits(c.Score))
	return appendBlob(buf, randtest.EncodeTrace(c.Trace))
}

// DecodeCorpusEntry parses a wire corpus entry.
func DecodeCorpusEntry(data []byte) (CorpusEntry, error) {
	r := reader{data: data}
	if err := r.header(corpusMagic, "corpus entry"); err != nil {
		return CorpusEntry{}, err
	}
	var c CorpusEntry
	c.Score = math.Float64frombits(r.uvarint())
	tr, err := decodeTraceBlob(&r)
	if err != nil {
		return CorpusEntry{}, err
	}
	c.Trace = tr
	if err := r.finish(); err != nil {
		return CorpusEntry{}, err
	}
	return c, nil
}

// Finding is the wire form of a campaign finding: everything a
// coordinator needs to deduplicate, rank, and print a reproduction
// recipe, without the process-local parts (flight-recorder dumps stay
// with the worker's logs; the alarm strings carry their headline).
type Finding struct {
	Worker        int // worker-local shard index of the discovery
	Exec          int64
	Seed          int64
	FromCorpus    bool
	Reproducible  bool
	ShrinkReplays int
	Failures      []string // alarm strings of the original run
	MinFailures   []string // alarm strings of the minimized replay
	Trace         *randtest.Trace
	Min           *randtest.Trace
	// Schedule-fuzz findings carry the recorded and minimized
	// schedules plus the seed that derives them; SchedErr is set when
	// the finding is a scheduler-level error rather than an alarm.
	Sched     *sched.Schedule
	MinSched  *sched.Schedule
	SchedSeed int64
	SchedErr  string
}

// FromFinding projects a campaign finding onto the wire form.
func FromFinding(f campaign.Finding) Finding {
	wf := Finding{
		Worker:        f.Worker,
		Exec:          f.Exec,
		Seed:          f.Seed,
		FromCorpus:    f.FromCorpus,
		Reproducible:  f.Reproducible,
		ShrinkReplays: f.ShrinkReplays,
		Trace:         f.Trace,
		Min:           f.Min,
		Sched:         f.Sched,
		MinSched:      f.MinSched,
		SchedSeed:     f.SchedSeed,
		SchedErr:      f.SchedErr,
	}
	for _, a := range f.Failures {
		wf.Failures = append(wf.Failures, a.String())
	}
	for _, a := range f.MinFailures {
		wf.MinFailures = append(wf.MinFailures, a.String())
	}
	return wf
}

// Encode renders the finding in wire form.
func (f Finding) Encode() []byte {
	buf := make([]byte, 0, 64+f.Trace.Len()*24+f.Min.Len()*24)
	buf = append(buf, findingMagic[:]...)
	buf = append(buf, WireVersion)
	buf = binary.AppendVarint(buf, int64(f.Worker))
	buf = binary.AppendVarint(buf, f.Exec)
	buf = binary.AppendVarint(buf, f.Seed)
	buf = appendBool(buf, f.FromCorpus)
	buf = appendBool(buf, f.Reproducible)
	buf = binary.AppendVarint(buf, int64(f.ShrinkReplays))
	buf = appendStrings(buf, f.Failures)
	buf = appendStrings(buf, f.MinFailures)
	buf = appendBlob(buf, randtest.EncodeTrace(f.Trace))
	buf = appendBlob(buf, randtest.EncodeTrace(f.Min))
	buf = appendSchedule(buf, f.Sched)
	buf = appendSchedule(buf, f.MinSched)
	buf = binary.AppendVarint(buf, f.SchedSeed)
	buf = appendString(buf, f.SchedErr)
	return buf
}

// DecodeFinding parses a wire finding.
func DecodeFinding(data []byte) (Finding, error) {
	r := reader{data: data}
	if err := r.header(findingMagic, "finding"); err != nil {
		return Finding{}, err
	}
	var f Finding
	f.Worker = int(r.varint())
	f.Exec = r.varint()
	f.Seed = r.varint()
	f.FromCorpus = r.bool()
	f.Reproducible = r.bool()
	f.ShrinkReplays = int(r.varint())
	f.Failures = r.strings()
	f.MinFailures = r.strings()
	var err error
	if f.Trace, err = decodeTraceBlob(&r); err != nil {
		return Finding{}, err
	}
	if f.Min, err = decodeTraceBlob(&r); err != nil {
		return Finding{}, err
	}
	f.Sched = r.schedule()
	f.MinSched = r.schedule()
	f.SchedSeed = r.varint()
	f.SchedErr = r.string()
	if err := r.finish(); err != nil {
		return Finding{}, err
	}
	return f, nil
}

// DedupKey is the fleet-wide identity of a finding: the canonical hash
// of its minimized trace (the full trace when minimization did not
// reproduce). Two workers that shrink the same bug to the same minimal
// op sequence — whatever concrete frames their allocations landed on —
// collapse to one entry.
func (f Finding) DedupKey() uint64 {
	tr := f.Min
	if tr.Len() == 0 {
		tr = f.Trace
	}
	return TraceHash(tr)
}

// TraceHash is a canonical content hash of a trace: FNV-1a over the
// op stream with frame numbers, VM handles, and CPU indices renumbered
// in order of first appearance. Recorded PFNs, handles, and CPU
// placements are concrete values from the discovering run — two
// reproductions of the same bug typically differ only in where their
// allocations landed and which CPUs the generator happened to pick —
// and this normalization makes their hashes collide on purpose while
// preserving the *relative* structure (same-CPU vs cross-CPU op pairs,
// same-frame vs different-frame accesses stay distinct).
func TraceHash(tr *randtest.Trace) uint64 {
	h := fnv.New64a()
	var scratch [binary.MaxVarintLen64]byte
	wr := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	pfns := map[arch.PFN]uint64{}
	handles := map[hyp.Handle]uint64{}
	xp := func(p arch.PFN) uint64 {
		if p == 0 {
			return 0 // "no frame" stays distinguished from any real one
		}
		id, ok := pfns[p]
		if !ok {
			id = uint64(len(pfns)) + 1
			pfns[p] = id
		}
		return id
	}
	xh := func(hd hyp.Handle) uint64 {
		if hd == 0 {
			return 0
		}
		id, ok := handles[hd]
		if !ok {
			id = uint64(len(handles)) + 1
			handles[hd] = id
		}
		return id
	}
	cpus := map[int]uint64{}
	xc := func(c int) uint64 {
		id, ok := cpus[c]
		if !ok {
			id = uint64(len(cpus)) + 1
			cpus[c] = id
		}
		return id
	}
	if tr == nil {
		return h.Sum64()
	}
	for _, op := range tr.Ops {
		wr(uint64(op.Kind))
		wr(xc(op.CPU))
		wr(xp(op.PFN))
		wr(op.Nr)
		wr(xh(op.H))
		wr(uint64(op.VCPU))
		wr(op.GFN)
		wr(op.Off)
		wr(boolBit(op.Write))
		wr(uint64(op.HC))
		for _, a := range op.Args {
			wr(a)
		}
		wr(uint64(op.Guest.Kind))
		wr(uint64(op.Guest.IPA))
		wr(boolBit(op.Guest.Write))
		wr(op.Guest.Value)
		wr(uint64(len(op.Prog)))
		for _, in := range op.Prog {
			wr(uint64(in.Op))
			wr(uint64(in.Dst))
			wr(uint64(in.Src))
			wr(in.Imm)
		}
	}
	return h.Sum64()
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// --- envelope primitives --------------------------------------------

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendBlob(buf, blob []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

// appendSchedule writes a presence byte then the steps, so a nil
// schedule (a serial finding) round-trips as nil, not as empty.
func appendSchedule(buf []byte, s *sched.Schedule) []byte {
	if s == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(s.Steps)))
	for _, st := range s.Steps {
		buf = binary.AppendVarint(buf, int64(st.VCPU))
		buf = binary.AppendUvarint(buf, st.Point)
	}
	return buf
}

func decodeTraceBlob(r *reader) (*randtest.Trace, error) {
	blob := r.blob()
	if r.err != nil {
		return nil, r.err
	}
	tr, err := randtest.DecodeTrace(blob)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// reader is the latching-error cursor for fleet envelopes.
type reader struct {
	data []byte
	pos  int
	err  error
}

var errTruncated = errors.New("fleet: truncated wire blob")

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

// header checks magic and version, returning a decode-stopping error
// on either mismatch.
func (r *reader) header(magic [4]byte, what string) error {
	var got [4]byte
	for i := range got {
		got[i] = r.byte()
	}
	if r.err != nil {
		return r.err
	}
	if got != magic {
		return fmt.Errorf("fleet: not a %s wire blob (magic %q)", what, got)
	}
	ver := r.byte()
	if r.err != nil {
		return r.err
	}
	if ver != WireVersion {
		return fmt.Errorf("%w: %s version %d, this binary speaks %d",
			ErrWireVersion, what, ver, WireVersion)
	}
	return nil
}

// finish rejects trailing bytes.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("fleet: %d trailing bytes", len(r.data)-r.pos)
	}
	return nil
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) blob() []byte {
	n := r.uvarint()
	// Compared unsigned: int(n) of a hostile length can wrap negative.
	if r.err != nil || n > uint64(len(r.data)-r.pos) {
		r.fail()
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

func (r *reader) string() string { return string(r.blob()) }

func (r *reader) strings() []string {
	n := r.uvarint()
	var out []string
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.string())
	}
	return out
}

func (r *reader) schedule() *sched.Schedule {
	if r.byte() == 0 || r.err != nil {
		return nil
	}
	n := r.uvarint()
	s := &sched.Schedule{}
	for i := uint64(0); i < n && r.err == nil; i++ {
		var st sched.Step
		st.VCPU = int(r.varint())
		st.Point = r.uvarint()
		s.Steps = append(s.Steps, st)
	}
	return s
}
