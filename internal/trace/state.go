package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"bsdtrace/internal/stats"
)

// Resumable encoder and validator state, for the fstraced checkpoint
// file: a daemon restart restores the exact positions of its encoder
// and validator so the resumed run is indistinguishable — byte for
// byte — from one that never stopped.

// NewResumedWriterV2 creates a version-2 Writer that continues a logical
// stream from record index count with delta-time base prev: the header
// is followed by a checkpoint carrying that position, so a reader of the
// resumed stream decodes absolute times correctly and reports exactly
// count pre-resume records as skipped. Record encoding after the resume
// point is byte-identical to what an uninterrupted writer would have
// produced.
func NewResumedWriterV2(w io.Writer, interval int, count int64, prev Time) *Writer {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	return &Writer{
		w:          bufio.NewWriterSize(w, 1<<16),
		version:    Version2,
		ckInterval: interval,
		count:      count,
		prev:       prev,
		resumed:    true,
	}
}

const validatorStateVersion = 1

// AppendState appends the validator's complete state: stream position,
// open-handle table (in sorted order, so the encoding is deterministic),
// per-kind counts, accumulated error strings, and the first offending
// event. A restored validator continues exactly where the original
// stopped — same future errors, same Finish count.
func (v *Validator) AppendState(buf []byte) []byte {
	buf = stats.AppendUvarint(buf, validatorStateVersion)
	buf = stats.AppendVarint(buf, int64(v.prev))
	buf = appendStateBool(buf, v.started)
	buf = stats.AppendVarint(buf, int64(v.maxErrs))

	buf = stats.AppendUvarint(buf, uint64(len(v.open)))
	ids := make([]OpenID, 0, len(v.open))
	for id := range v.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := v.open[id]
		buf = stats.AppendUvarint(buf, uint64(id))
		buf = stats.AppendUvarint(buf, uint64(st.file))
		buf = stats.AppendUvarint(buf, uint64(st.mode))
		buf = stats.AppendVarint(buf, st.pos)
	}

	for _, c := range v.counts.ByKind {
		buf = stats.AppendVarint(buf, c)
	}
	buf = stats.AppendVarint(buf, v.counts.Total)

	buf = stats.AppendUvarint(buf, uint64(len(v.errs)))
	for _, e := range v.errs {
		s := e.Error()
		buf = stats.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}

	if v.firstBad != nil {
		buf = append(buf, 1)
		buf = AppendEventState(buf, *v.firstBad)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeState replaces the validator's state with one appended by
// AppendState, returning the remaining bytes. It never panics on corrupt
// input.
func (v *Validator) DecodeState(buf []byte) ([]byte, error) {
	ver, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if ver != validatorStateVersion {
		return nil, fmt.Errorf("trace: validator state version %d, want %d", ver, validatorStateVersion)
	}
	var x int64
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	prev := Time(x)
	started, buf, err := decodeStateBool(buf)
	if err != nil {
		return nil, err
	}
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	maxErrs := int(x)
	if maxErrs <= 0 || maxErrs > 1<<20 {
		return nil, stats.ErrCorruptState
	}

	n, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, stats.ErrCorruptState
	}
	open := make(map[OpenID]*openState, n)
	for i := uint64(0); i < n; i++ {
		var id, file, mode uint64
		if id, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if file, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if mode, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		var pos int64
		if pos, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		open[OpenID(id)] = &openState{file: FileID(file), mode: Mode(mode), pos: pos}
	}

	var counts Counts
	for i := range counts.ByKind {
		if counts.ByKind[i], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
	}
	if counts.Total, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}

	nerrs, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if nerrs > uint64(maxErrs) {
		return nil, stats.ErrCorruptState
	}
	errs := make([]error, 0, nerrs)
	for i := uint64(0); i < nerrs; i++ {
		var slen uint64
		if slen, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if slen > 1<<16 || uint64(len(buf)) < slen {
			return nil, stats.ErrCorruptState
		}
		errs = append(errs, errors.New(string(buf[:slen])))
		buf = buf[slen:]
	}

	var firstBad *Event
	hasBad, buf, err := decodeStateBool(buf)
	if err != nil {
		return nil, err
	}
	if hasBad {
		var e Event
		if e, buf, err = DecodeEventState(buf); err != nil {
			return nil, err
		}
		firstBad = &e
	}

	v.prev = prev
	v.started = started
	v.maxErrs = maxErrs
	v.open = open
	v.counts = counts
	v.errs = errs
	v.firstBad = firstBad
	return buf, nil
}

// AppendEventState appends a flat, kind-independent encoding of one
// event (all fields, unconditionally) for state blobs. It is not the
// trace wire format: no delta encoding, no header, no framing.
func AppendEventState(buf []byte, e Event) []byte {
	buf = stats.AppendVarint(buf, int64(e.Time))
	buf = append(buf, byte(e.Kind))
	buf = stats.AppendUvarint(buf, uint64(e.OpenID))
	buf = stats.AppendUvarint(buf, uint64(e.File))
	buf = stats.AppendUvarint(buf, uint64(e.User))
	buf = append(buf, byte(e.Mode))
	buf = stats.AppendVarint(buf, e.Size)
	buf = stats.AppendVarint(buf, e.OldPos)
	return stats.AppendVarint(buf, e.NewPos)
}

// DecodeEventState decodes an event appended by AppendEventState.
func DecodeEventState(buf []byte) (Event, []byte, error) {
	var e Event
	var x int64
	var u uint64
	var err error
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return e, nil, err
	}
	e.Time = Time(x)
	if len(buf) < 1 {
		return e, nil, stats.ErrCorruptState
	}
	e.Kind, buf = Kind(buf[0]), buf[1:]
	if u, buf, err = stats.DecodeUvarint(buf); err != nil {
		return e, nil, err
	}
	e.OpenID = OpenID(u)
	if u, buf, err = stats.DecodeUvarint(buf); err != nil {
		return e, nil, err
	}
	e.File = FileID(u)
	if u, buf, err = stats.DecodeUvarint(buf); err != nil {
		return e, nil, err
	}
	e.User = UserID(u)
	if len(buf) < 1 {
		return e, nil, stats.ErrCorruptState
	}
	e.Mode, buf = Mode(buf[0]), buf[1:]
	if e.Size, buf, err = stats.DecodeVarint(buf); err != nil {
		return e, nil, err
	}
	if e.OldPos, buf, err = stats.DecodeVarint(buf); err != nil {
		return e, nil, err
	}
	if e.NewPos, buf, err = stats.DecodeVarint(buf); err != nil {
		return e, nil, err
	}
	return e, buf, nil
}

func appendStateBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodeStateBool(buf []byte) (bool, []byte, error) {
	if len(buf) < 1 {
		return false, nil, stats.ErrCorruptState
	}
	return buf[0] != 0, buf[1:], nil
}
