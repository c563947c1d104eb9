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
// and version over the same internal/wire primitives and reject skew
// the same way.
package fleet

import (
	"errors"
	"hash/fnv"
	"math"

	"ghostspec/internal/arch"
	"ghostspec/internal/campaign"
	"ghostspec/internal/hyp"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
	"ghostspec/internal/wire"
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
	buf = wire.AppendHeader(buf, corpusMagic, WireVersion)
	buf = wire.AppendUvarint(buf, math.Float64bits(c.Score))
	return wire.AppendBlob(buf, randtest.EncodeTrace(c.Trace))
}

// DecodeCorpusEntry parses a wire corpus entry.
func DecodeCorpusEntry(data []byte) (CorpusEntry, error) {
	r := wire.NewReader(data)
	if err := r.Header(corpusMagic, WireVersion, ErrWireVersion, "corpus entry"); err != nil {
		return CorpusEntry{}, err
	}
	var c CorpusEntry
	c.Score = math.Float64frombits(r.Uvarint())
	c.Trace = readTrace(r)
	if err := r.Finish(); err != nil {
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
	buf = wire.AppendHeader(buf, findingMagic, WireVersion)
	buf = wire.AppendVarint(buf, int64(f.Worker))
	buf = wire.AppendVarint(buf, f.Exec)
	buf = wire.AppendVarint(buf, f.Seed)
	buf = wire.AppendBool(buf, f.FromCorpus)
	buf = wire.AppendBool(buf, f.Reproducible)
	buf = wire.AppendVarint(buf, int64(f.ShrinkReplays))
	buf = wire.AppendStrings(buf, f.Failures)
	buf = wire.AppendStrings(buf, f.MinFailures)
	buf = wire.AppendBlob(buf, randtest.EncodeTrace(f.Trace))
	buf = wire.AppendBlob(buf, randtest.EncodeTrace(f.Min))
	buf = appendSchedule(buf, f.Sched)
	buf = appendSchedule(buf, f.MinSched)
	buf = wire.AppendVarint(buf, f.SchedSeed)
	return wire.AppendString(buf, f.SchedErr)
}

// DecodeFinding parses a wire finding.
func DecodeFinding(data []byte) (Finding, error) {
	r := wire.NewReader(data)
	if err := r.Header(findingMagic, WireVersion, ErrWireVersion, "finding"); err != nil {
		return Finding{}, err
	}
	var f Finding
	f.Worker = int(r.Varint())
	f.Exec = r.Varint()
	f.Seed = r.Varint()
	f.FromCorpus = r.Bool()
	f.Reproducible = r.Bool()
	f.ShrinkReplays = int(r.Varint())
	f.Failures = r.Strings()
	f.MinFailures = r.Strings()
	f.Trace = readTrace(r)
	f.Min = readTrace(r)
	f.Sched = readSchedule(r)
	f.MinSched = readSchedule(r)
	f.SchedSeed = r.Varint()
	f.SchedErr = r.String()
	if err := r.Finish(); err != nil {
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
// trace's wire encoding with frame numbers, VM handles, and CPU indices
// renumbered in order of first appearance. Recorded PFNs, handles, and
// CPU placements are concrete values from the discovering run — two
// reproductions of the same bug typically differ only in where their
// allocations landed and which CPUs the generator happened to pick —
// and this normalization makes their hashes collide on purpose while
// preserving the *relative* structure (same-CPU vs cross-CPU op pairs,
// same-frame vs different-frame accesses stay distinct).
func TraceHash(tr *randtest.Trace) uint64 {
	h := fnv.New64a()
	h.Write(randtest.EncodeTrace(canonical(tr)))
	return h.Sum64()
}

// canonical returns a copy of tr with PFNs, handles and CPUs renumbered
// by first appearance. PFN 0 and handle 0 mean "no frame" and "no VM"
// and stay 0, distinct from any real one.
func canonical(tr *randtest.Trace) *randtest.Trace {
	if tr == nil {
		return nil
	}
	pfns := map[arch.PFN]arch.PFN{0: 0}
	handles := map[hyp.Handle]hyp.Handle{0: 0}
	cpus := map[int]int{}
	out := &randtest.Trace{Ops: make([]randtest.Op, len(tr.Ops))}
	for i, op := range tr.Ops {
		op.PFN = firstSeen(pfns, op.PFN)
		op.H = firstSeen(handles, op.H)
		op.CPU = firstSeen(cpus, op.CPU)
		out.Ops[i] = op
	}
	return out
}

// firstSeen maps k to its order of first appearance in ids, counting
// from len(ids) at the first call.
func firstSeen[K ~int | ~uint32 | ~uint64](ids map[K]K, k K) K {
	id, ok := ids[k]
	if !ok {
		id = K(len(ids))
		ids[k] = id
	}
	return id
}

// appendSchedule writes a presence byte then the steps, so a nil
// schedule (a serial finding) round-trips as nil, not as empty.
func appendSchedule(buf []byte, s *sched.Schedule) []byte {
	if s == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = wire.AppendUvarint(buf, uint64(len(s.Steps)))
	for _, st := range s.Steps {
		buf = wire.AppendVarint(buf, int64(st.VCPU))
		buf = wire.AppendUvarint(buf, st.Point)
	}
	return buf
}

func readSchedule(r *wire.Reader) *sched.Schedule {
	if r.Byte() == 0 || r.Err() != nil {
		return nil
	}
	n := r.Uvarint()
	s := &sched.Schedule{}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var st sched.Step
		st.VCPU = int(r.Varint())
		st.Point = r.Uvarint()
		s.Steps = append(s.Steps, st)
	}
	return s
}

func readTrace(r *wire.Reader) *randtest.Trace {
	blob := r.Blob()
	if r.Err() != nil {
		return nil
	}
	tr, err := randtest.DecodeTrace(blob)
	if err != nil {
		r.Fail(err)
	}
	return tr
}
