package xfer

import (
	"io"
	"sort"
	"sync"

	"bsdtrace/internal/trace"
)

// Tape is the reconstructed transfer stream of one trace, materialized as
// a reusable artifact: one Scanner pass over the events produces the
// complete sequence of transfers plus the interleaved control operations
// (clock advances and dead-data purges) that a consumer replaying the
// stream needs. Transfers are expressed in bytes, so a single tape is
// valid for every block size; the cache simulator builds a tape once and
// replays it into arbitrarily many cache configurations in parallel
// instead of re-reconstructing the same transfers for each one.
//
// The op sequence preserves the exact event order of the source trace:
// replaying the tape is observationally identical to feeding the events
// through a Scanner, with two reductions applied at build time. Events
// that produce no transfer or purge (opens, empty seeks and closes,
// zero-size execs) collapse into OpAdvance clock ticks, and consecutive
// clock ticks merge. An open's size information is not lost: the file
// size the cache layer would have known before each transfer is
// precomputed into OldSizes, so replay needs no per-file size tracking
// at all.
type Tape struct {
	// Ops is the replay sequence. Op times are nondecreasing.
	Ops []Op
	// Transfers holds the reconstructed runs (and synthesized exec
	// reads), indexed by Op.Ref, in emission order.
	Transfers []Transfer
	// Slots is parallel to Transfers: the slot of the transfer's file.
	Slots []int32
	// OldSizes is parallel to Transfers: the size of the transfer's file
	// as known just before the transfer, following the paper's cache
	// simulator rules (sizes are learned from open/create/truncate
	// events and from writes that extend a file; execs do not change
	// them). A write run ending beyond OldSizes[i] extends the file;
	// blocks wholly beyond it hold no valid data and need no fetch.
	OldSizes []int64
	// Files names the tape's files by dense slot: every file an event
	// names gets the next slot when it first appears, and Files[s] is
	// slot s's FileID. Transfers and purges refer to files by slot, so a
	// consumer can keep per-file state in slices indexed by slot.
	Files []trace.FileID
	// Extents is parallel to Files: the largest byte end of any
	// transfer of the slot's file, 0 when none moved bytes.
	Extents []int64
	// Unclosed is the number of opens still outstanding at the end of
	// the trace (their partial transfers are on the tape).
	Unclosed int

	mu   sync.Mutex
	memo map[int64]*memoEntry
}

type memoEntry struct {
	once sync.Once
	v    any
}

// OpKind discriminates tape operations.
type OpKind uint8

// Tape operations, in replay semantics:
const (
	// OpAdvance moves the clock to Op.Time. Every op implies a clock
	// advance; a bare OpAdvance stands for trace events that produced
	// nothing else, so that time-driven machinery (flush-back scans)
	// observes the same clock motion as the original event stream.
	OpAdvance OpKind = iota
	// OpPurge reports data death: every block of the file in slot
	// Op.Ref whose byte range starts at or beyond Op.Size is dead (Size
	// 0 kills the whole file). Emitted for unlinks, truncations, and
	// overwriting creates.
	OpPurge
	// OpTransfer replays Transfers[Op.Ref].
	OpTransfer
	// OpExec replays Transfers[Op.Ref], a synthesized whole-file read
	// of an executed binary, but only for consumers that simulate
	// program paging; others treat it as OpAdvance.
	OpExec
)

// Op is one tape operation. Its fields are ordered for size: an Op is
// 24 bytes.
type Op struct {
	// Time is the operation's clock value (the source event's time).
	Time trace.Time
	// Size is the survival boundary for OpPurge: bytes at or beyond it
	// are dead.
	Size int64
	// Ref indexes Transfers for OpTransfer and OpExec, and is the dying
	// file's slot (see Tape.Files) for OpPurge.
	Ref  int32
	Kind OpKind
}

// TapeBuilder constructs a Tape incrementally from a time-ordered event
// stream: Add each event as it arrives, then Finish. Its working state is
// one Scanner plus a file-to-slot map and a per-slot size table —
// bounded by the number of distinct files, not the event count — so a
// tape can be built from a stream that never fits in memory. NewTape is
// exactly a TapeBuilder fed from a slice; the two produce identical
// tapes by construction.
type TapeBuilder struct {
	t    *Tape
	slot map[trace.FileID]int32
	// sizes is indexed by slot: the file size the cache layer knows.
	sizes []int64
	// The tape's long slices accumulate in chunks until Finish.
	ops       chunks[Op]
	transfers chunks[Transfer]
	slots     chunks[int32]
	oldSizes  chunks[int64]
	sc        *Scanner
	done      bool
}

// chunks accumulates a long slice in chunks of up to maxChunk elements,
// so that building it copies each element once, into the exactly sized
// slice flat returns. Growing one slice by append would copy a long
// tape several times over: append grows a large slice by about 1.25x.
type chunks[T any] struct {
	full [][]T
	cur  []T
	n    int
}

const maxChunk = 1 << 16

func (c *chunks[T]) push(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]T, 0, min(max(2*len(c.cur), 64), maxChunk))
	}
	c.cur = append(c.cur, v)
	c.n++
}

// last returns the most recent element; there must be one.
func (c *chunks[T]) last() *T { return &c.cur[len(c.cur)-1] }

func (c *chunks[T]) flat() []T {
	out := make([]T, 0, c.n)
	for _, ch := range c.full {
		out = append(out, ch...)
	}
	out = append(out, c.cur...)
	*c = chunks[T]{}
	return out
}

// NewTapeBuilder creates an empty builder.
func NewTapeBuilder() *TapeBuilder {
	b := &TapeBuilder{
		t:    &Tape{},
		slot: make(map[trace.FileID]int32),
		sc:   NewScanner(),
	}
	b.sc.OnTransfer = func(tr Transfer) { b.emit(OpTransfer, tr) }
	return b
}

// slotOf returns f's slot, giving f the next one on first sight.
func (b *TapeBuilder) slotOf(f trace.FileID) int32 {
	s, ok := b.slot[f]
	if !ok {
		s = int32(len(b.sizes))
		b.slot[f] = s
		b.sizes = append(b.sizes, 0)
		b.t.Files = append(b.t.Files, f)
		b.t.Extents = append(b.t.Extents, 0)
	}
	return s
}

// emit appends a transfer and the op that replays it. A write that
// ends beyond the known size extends the file; exec reads never do.
func (b *TapeBuilder) emit(kind OpKind, tr Transfer) {
	t := b.t
	s := b.slotOf(tr.File)
	b.ops.push(Op{Kind: kind, Time: tr.Time, Ref: int32(b.transfers.n)})
	b.transfers.push(tr)
	b.slots.push(s)
	old := b.sizes[s]
	b.oldSizes.push(old)
	end := tr.End()
	if end > t.Extents[s] {
		t.Extents[s] = end
	}
	if tr.Write && end > old {
		b.sizes[s] = end
	}
}

// purge appends a data-death op for e's file and records its new size.
func (b *TapeBuilder) purge(e trace.Event, size int64) {
	s := b.slotOf(e.File)
	b.ops.push(Op{Kind: OpPurge, Time: e.Time, Size: size, Ref: s})
	b.sizes[s] = size
}

// Add appends one event's tape operations. Events must arrive in time
// order.
func (b *TapeBuilder) Add(e trace.Event) {
	n := b.ops.n
	switch e.Kind {
	case trace.KindCreate, trace.KindUnlink:
		// An overwrite or a deletion: all the file's blocks are dead.
		b.purge(e, 0)
	case trace.KindOpen:
		b.sizes[b.slotOf(e.File)] = e.Size
	case trace.KindTruncate:
		b.purge(e, e.Size)
	case trace.KindExec:
		if e.Size > 0 {
			b.emit(OpExec, Transfer{
				Time: e.Time, Start: e.Time,
				File: e.File, User: e.User,
				Offset: 0, Length: e.Size,
				Mode: trace.ReadOnly,
			})
		}
	}
	b.sc.Feed(e)
	if b.ops.n == n {
		// The event produced nothing; keep its clock motion.
		if n > 0 && b.ops.last().Kind == OpAdvance {
			b.ops.last().Time = e.Time
		} else {
			b.ops.push(Op{Kind: OpAdvance, Time: e.Time})
		}
	}
}

// Finish completes the tape. It returns the first malformed-stream
// complaint as an error, exactly as scanning would. Add calls after
// Finish are invalid; calling Finish again returns the same tape.
func (b *TapeBuilder) Finish() (*Tape, error) {
	if !b.done {
		b.done = true
		t := b.t
		t.Unclosed = b.sc.Finish()
		t.Ops, t.Transfers = b.ops.flat(), b.transfers.flat()
		t.Slots, t.OldSizes = b.slots.flat(), b.oldSizes.flat()
	}
	if errs := b.sc.Errs(); len(errs) > 0 {
		return nil, errs[0]
	}
	return b.t, nil
}

// NewTape reconstructs the transfer tape of a time-ordered trace. It
// returns the first malformed-stream complaint as an error, exactly as
// scanning would.
func NewTape(events []trace.Event) (*Tape, error) {
	b := NewTapeBuilder()
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish()
}

// BuildTape reconstructs the transfer tape of a time-ordered event
// stream, pulling one event at a time: the source's trace never needs to
// fit in memory (*trace.Reader is a Source, as is a merged shard stream).
func BuildTape(src trace.Source) (*Tape, error) {
	b := NewTapeBuilder()
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	for {
		n, err := trace.ReadBatch(src, buf)
		if n == 0 {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		for _, e := range buf[:n] {
			b.Add(e)
		}
	}
	return b.Finish()
}

// Truncate returns the tape's prefix up to and including time at: every
// op with Time <= at, followed (if needed) by a bare clock advance to
// exactly at, so that time-driven machinery — flush-back scans scheduled
// at or before at — observes the same clock motion a full replay would
// have delivered by that instant. Replaying the truncated tape therefore
// reproduces the cache state of a crash at time at; the crash-injection
// layer uses independent truncated replays as the oracle for its
// single-pass sweep. Transfers and the per-transfer and per-slot tables
// are shared with the receiver (all are read-only); the memo cache and
// Unclosed are not carried over.
func (t *Tape) Truncate(at trace.Time) *Tape {
	n := sort.Search(len(t.Ops), func(i int) bool { return t.Ops[i].Time > at })
	ops := make([]Op, n, n+1)
	copy(ops, t.Ops[:n])
	if n == 0 || ops[n-1].Time < at {
		ops = append(ops, Op{Kind: OpAdvance, Time: at})
	}
	return &Tape{Ops: ops, Transfers: t.Transfers, Slots: t.Slots, OldSizes: t.OldSizes,
		Files: t.Files, Extents: t.Extents}
}

// Memo returns the value cached on the tape under key, building and
// caching it on first use. Consumers use it to attach derived read-only
// artifacts (the cache simulator keys per-block-size resolutions by
// block size) so that repeated sweeps over one tape pay the derivation
// cost once. Safe for concurrent use: concurrent callers with the same
// key share one build, while different keys build in parallel.
func (t *Tape) Memo(key int64, build func() any) any {
	t.mu.Lock()
	e := t.memo[key]
	if e == nil {
		if t.memo == nil {
			t.memo = make(map[int64]*memoEntry)
		}
		e = &memoEntry{}
		t.memo[key] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}
