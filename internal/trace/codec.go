package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The binary trace file format is a 5-byte header ("BSDT" plus a version
// byte) followed by one variable-length record per event:
//
//	kind      1 byte
//	Δtime     signed varint, milliseconds since the previous event
//	fields    per-kind varints, in the field order of Table II
//
// Delta-encoded times and varint fields keep trace files small; the 1985
// tracer had the same concern (§3: "Our main concern in gathering file
// system trace information was the volume of data").
//
// Version 2 keeps the record encoding bit-for-bit and adds periodic
// resync checkpoints between records — see checkpoint.go. A version-2
// reader verifies each segment against its checkpoint CRC before
// emitting any of its events, and on corruption skips forward to the
// next checkpoint instead of aborting, so one damaged region costs one
// segment, not the rest of the trace.

var magic = [4]byte{'B', 'S', 'D', 'T'}

// HeaderLen is the length of the binary header: the 4-byte magic plus
// the version byte. A version-1 trace is HeaderLen bytes plus its records.
const HeaderLen = 5

// Version is the original binary format version, still the default for
// every writer: the golden report path depends on byte-identical v1
// output.
const Version = 1

// Version2 is the checkpointed format version (see checkpoint.go).
const Version2 = 2

// ErrBadHeader is returned by NewReader when the stream does not start
// with a valid trace header.
var ErrBadHeader = errors.New("trace: bad header")

// Writer encodes events to an underlying stream in the binary format.
type Writer struct {
	w     *bufio.Writer
	prev  Time
	count int64
	buf   []byte // the record or checkpoint being written, reused
	begun bool
	err   error

	// Version-2 checkpoint state. version is 1 or 2; the segment fields
	// track the records written since the last checkpoint.
	version    byte
	ckInterval int
	segCRC     uint32
	segBytes   int64
	segRecords int

	// resumed marks a writer continuing a logical stream from a nonzero
	// record index (NewResumedWriterV2): the header is followed by an
	// immediate checkpoint carrying the resume position, which a fresh
	// reader uses to restore the absolute time and record index — and to
	// account the records it never saw as skipped.
	resumed bool
}

// NewWriter creates a version-1 Writer. The header is written on the
// first event so that creating a writer is infallible.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), version: Version}
}

// NewWriterV2 creates a Writer emitting the version-2 checkpointed
// framing: a resync checkpoint every interval records (and one final
// checkpoint at Flush, so every record is covered by a CRC). interval <=
// 0 selects DefaultCheckpointInterval. Record bytes are identical to
// version 1; only the header version byte and the checkpoints differ.
func NewWriterV2(w io.Writer, interval int) *Writer {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), version: Version2, ckInterval: interval}
}

// recordBytes writes raw record bytes, folding them into the segment CRC
// when the checkpointed format is active.
func (w *Writer) recordBytes(p []byte) {
	if w.err != nil {
		return
	}
	if _, w.err = w.w.Write(p); w.err != nil {
		return
	}
	if w.version == Version2 {
		w.segCRC = crc32.Update(w.segCRC, crc32.IEEETable, p)
		w.segBytes += int64(len(p))
	}
}

func (w *Writer) header() error {
	if w.begun || w.err != nil {
		return w.err
	}
	if _, w.err = w.w.Write(magic[:]); w.err != nil {
		return w.err
	}
	if w.err = w.w.WriteByte(w.version); w.err != nil {
		return w.err
	}
	w.begun = true
	if w.resumed {
		// The resume checkpoint: an empty segment whose recordIdx and
		// absTime are the resume position. A reader joining here resyncs
		// off it exactly as it would off a mid-stream join, with the
		// pre-resume records counted in its SkipStats.
		w.writeCheckpoint()
	}
	return nil
}

// AppendRecord appends e's binary record to dst, its time delta-encoded
// against prev, the time of the record before it. This is the record
// layout, written in one place: the Writer encodes through it, and a
// version-1 trace's size is HeaderLen plus the lengths of its records.
// An event of an invalid kind has no record: dst comes back unchanged
// with an error.
func AppendRecord(dst []byte, prev Time, e Event) ([]byte, error) {
	if !e.Kind.Valid() {
		return dst, fmt.Errorf("trace: cannot encode event of kind %v", e.Kind)
	}
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendVarint(dst, int64(e.Time-prev))
	switch e.Kind {
	case KindCreate, KindOpen:
		dst = binary.AppendUvarint(dst, uint64(e.OpenID))
		dst = binary.AppendUvarint(dst, uint64(e.File))
		dst = binary.AppendUvarint(dst, uint64(e.User))
		dst = binary.AppendUvarint(dst, uint64(e.Mode))
		dst = binary.AppendVarint(dst, e.Size)
	case KindClose:
		dst = binary.AppendUvarint(dst, uint64(e.OpenID))
		dst = binary.AppendVarint(dst, e.NewPos)
	case KindSeek:
		dst = binary.AppendUvarint(dst, uint64(e.OpenID))
		dst = binary.AppendVarint(dst, e.OldPos)
		dst = binary.AppendVarint(dst, e.NewPos)
	case KindUnlink:
		dst = binary.AppendUvarint(dst, uint64(e.File))
	case KindTruncate:
		dst = binary.AppendUvarint(dst, uint64(e.File))
		dst = binary.AppendVarint(dst, e.Size)
	case KindExec:
		dst = binary.AppendUvarint(dst, uint64(e.File))
		dst = binary.AppendUvarint(dst, uint64(e.User))
		dst = binary.AppendVarint(dst, e.Size)
	}
	return dst, nil
}

// Write encodes one event. Events should be presented in non-decreasing
// time order; out-of-order events are still encoded correctly (the time
// delta is signed) but most consumers require ordered streams.
func (w *Writer) Write(e Event) error {
	if w.err != nil {
		return w.err
	}
	rec, err := AppendRecord(w.buf[:0], w.prev, e)
	if err != nil {
		return err
	}
	w.buf = rec
	if err := w.header(); err != nil {
		return err
	}
	w.recordBytes(rec)
	w.prev = e.Time
	if w.err == nil {
		w.count++
		if w.version == Version2 {
			w.segRecords++
			if w.segRecords >= w.ckInterval {
				w.writeCheckpoint()
			}
		}
	}
	return w.err
}

// Count returns the number of events successfully written.
func (w *Writer) Count() int64 { return w.count }

// Flush writes any buffered data to the underlying stream. An empty trace
// still gets a header so that readers can distinguish "empty trace" from
// "not a trace". A version-2 writer first seals any open segment with a
// checkpoint, so a flushed stream is verifiable end to end.
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	if w.version == Version2 && w.segRecords > 0 {
		w.writeCheckpoint()
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// Reader decodes events from a binary trace stream, version 1 or 2.
//
// A version-2 reader buffers each segment and verifies it against its
// checkpoint CRC before emitting any event; on CRC mismatch or
// undecodable bytes it discards the segment, scans forward to the next
// checkpoint, restores the delta-decoding state from the checkpoint's
// absolute snapshot, and continues. Skipped() reports what was lost.
// A version-1 reader fails fast exactly as before, now with record and
// byte-offset context on every error.
type Reader struct {
	r       *posReader
	prev    Time
	version byte
	// index is the absolute record index of the next event to return;
	// after a version-2 resync it realigns to the writer-side index
	// recorded in the checkpoint.
	index int64

	// Version-2 segment state: events decoded but not yet verified or
	// emitted, and the running skip accounting.
	seg    []Event
	segPos int
	skip   SkipStats
	eof    bool

	// pendErr is a stream-end or decode error encountered while a
	// NextBatch call had already decoded events: the partial batch went
	// out clean and the error waits here for the following call.
	pendErr error
	// fail is the reader's terminal non-EOF error. Once set, every
	// further call repeats it: a stream that failed to decode must
	// never be mistaken for one that ended cleanly, no matter how many
	// times a consumer retries.
	fail error
}

// fatal records a non-EOF error as the reader's sticky terminal state
// and passes err through either way.
func (r *Reader) fatal(err error) error {
	if err != nil && err != io.EOF {
		r.fail = err
	}
	return err
}

// SkipStats reports what a self-healing version-2 reader could not turn
// into events: corrupt or unverifiable regions it skipped.
type SkipStats struct {
	// Bytes is the count of stream bytes consumed without emitting
	// events: corrupt segments (including their checkpoints), scanned
	// garbage, and unverified truncated tails.
	Bytes int64
	// Records is a best-effort estimate of the records lost, from
	// checkpoint record indices where available and from decoded-but-
	// unverified counts otherwise.
	Records int64
	// Segments is the number of discarded segments (resync operations).
	Segments int64
}

// Zero reports whether nothing was skipped — the stream was ingested in
// full.
func (s SkipStats) Zero() bool { return s == SkipStats{} }

func (s SkipStats) String() string {
	return fmt.Sprintf("%d bytes, ~%d records, %d segments skipped", s.Bytes, s.Records, s.Segments)
}

// posReader is a byte reader that tracks the absolute stream offset and
// an optional running CRC32 of the bytes read (used for version-2
// segment verification).
type posReader struct {
	br    *bufio.Reader
	off   int64
	crc   uint32
	crcOn bool
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.br.ReadByte()
	if err != nil {
		return 0, err
	}
	p.off++
	if p.crcOn {
		// crc32.Update's one-byte step, inlined: a []byte{b} argument
		// would escape and cost an allocation per byte.
		c := ^p.crc
		p.crc = ^(crc32.IEEETable[byte(c)^b] ^ c>>8)
	}
	return b, nil
}

// NewReader creates a Reader, consuming and checking the header. Version
// 1 and version 2 streams are both accepted.
func NewReader(r io.Reader) (*Reader, error) {
	p := &posReader{br: bufio.NewReaderSize(r, 1<<16)}
	var hdr [HeaderLen]byte
	for i := range hdr {
		b, err := p.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
		}
		hdr[i] = b
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadHeader, hdr[:4])
	}
	if hdr[4] != Version && hdr[4] != Version2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, hdr[4])
	}
	rd := &Reader{r: p, version: hdr[4]}
	rd.r.crcOn = rd.version == Version2
	return rd, nil
}

// Version returns the stream's format version (1 or 2).
func (r *Reader) Version() int { return int(r.version) }

// Skipped returns the reader's self-healing accounting. It is always
// zero for a version-1 stream (which fails fast instead) and for an
// undamaged version-2 stream; a caller that requires complete ingestion
// must check it after draining the stream.
func (r *Reader) Skipped() SkipStats { return r.skip }

// Next returns the next event, or io.EOF at a clean end of stream. Any
// truncation mid-record is reported as io.ErrUnexpectedEOF. Decode
// errors carry the failing record's index and byte offset.
func (r *Reader) Next() (Event, error) {
	if r.fail != nil {
		return Event{}, r.fail
	}
	if r.pendErr != nil {
		err := r.pendErr
		r.pendErr = nil
		return Event{}, r.fatal(err)
	}
	if r.version == Version2 {
		e, err := r.nextV2()
		return e, r.fatal(err)
	}
	recStart := r.r.off
	kindByte, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, r.fatal(r.recordErr(recStart, err))
	}
	e, err := r.decodeBody(kindByte)
	if err != nil {
		return Event{}, r.fatal(r.recordErr(recStart, err))
	}
	r.index++
	return e, nil
}

// recordErr wraps a decode error with the failing record's index and the
// byte offset where the record started.
func (r *Reader) recordErr(recStart int64, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: record %d at offset %d: corrupt stream: %w", r.index, recStart, err)
}

// errBadKind is the inner error for an invalid kind byte; recordErr adds
// the position context.
type errBadKind byte

func (e errBadKind) Error() string { return fmt.Sprintf("kind byte %d", byte(e)) }

// decodeBody decodes one record given its already-consumed kind byte,
// advancing the delta-time state. It is shared by the version-1 fast
// path and the version-2 segment loop.
func (r *Reader) decodeBody(kindByte byte) (Event, error) {
	var e Event
	e.Kind = Kind(kindByte)
	if !e.Kind.Valid() {
		return Event{}, errBadKind(kindByte)
	}
	dt, err := r.varint()
	if err != nil {
		return Event{}, err
	}
	e.Time = r.prev + Time(dt)
	r.prev = e.Time
	switch e.Kind {
	case KindCreate, KindOpen:
		var open, file, user, mode uint64
		if open, err = r.uvarint(); err == nil {
			if file, err = r.uvarint(); err == nil {
				if user, err = r.uvarint(); err == nil {
					if mode, err = r.uvarint(); err == nil {
						e.Size, err = r.varint()
					}
				}
			}
		}
		e.OpenID, e.File, e.User, e.Mode = OpenID(open), FileID(file), UserID(user), Mode(mode)
	case KindClose:
		var open uint64
		if open, err = r.uvarint(); err == nil {
			e.NewPos, err = r.varint()
		}
		e.OpenID = OpenID(open)
	case KindSeek:
		var open uint64
		if open, err = r.uvarint(); err == nil {
			if e.OldPos, err = r.varint(); err == nil {
				e.NewPos, err = r.varint()
			}
		}
		e.OpenID = OpenID(open)
	case KindUnlink:
		var file uint64
		file, err = r.uvarint()
		e.File = FileID(file)
	case KindTruncate:
		var file uint64
		if file, err = r.uvarint(); err == nil {
			e.Size, err = r.varint()
		}
		e.File = FileID(file)
	case KindExec:
		var file, user uint64
		if file, err = r.uvarint(); err == nil {
			if user, err = r.uvarint(); err == nil {
				e.Size, err = r.varint()
			}
		}
		e.File, e.User = FileID(file), UserID(user)
	}
	if err != nil {
		return Event{}, err
	}
	return e, nil
}

func (r *Reader) varint() (int64, error) { return binary.ReadVarint(r.r) }

func (r *Reader) uvarint() (uint64, error) { return binary.ReadUvarint(r.r) }

// ReadAll decodes the remainder of the stream — everything not yet
// consumed by Next — into one in-memory slice. It exists for tests and
// small traces; scale-sensitive consumers should instead pull events one
// at a time through Next (a Reader is a Source) so the trace never has to
// fit in memory. See analyzer.AnalyzeSource and xfer.BuildTape.
func (r *Reader) ReadAll() ([]Event, error) {
	var out []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// WriteFile encodes events to a file in the binary format.
func WriteFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes an entire binary trace file into memory.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}
