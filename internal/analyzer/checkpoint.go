package analyzer

import (
	"errors"
	"fmt"
	"sort"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

// Stream checkpoint serialization.
//
// MarshalBinary captures the complete incremental state of an unfinished
// Stream — histograms, activity accumulators, the open/live/share
// tables, the transfer scanner, and the record bytes and delta base that
// back EncodedSize — and RestoreStream rebuilds a Stream from it. The
// restore invariant, pinned by TestStreamCheckpointRoundTrip, is
// byte-exactness: feeding events e(n+1)..e(N) into a Stream restored at
// position n and finishing produces an Analysis (and a rendered report)
// identical to feeding e(1)..e(N) into one Stream without interruption.
// Floating-point state round-trips through exact bit patterns, and all
// maps are serialized in sorted key order, so the blob itself is a
// deterministic function of the stream's state.
//
// The format is a versioned byte string read with bounds-checked
// decoders: RestoreStream never panics on corrupt input (fuzzed by
// FuzzRestoreStream), it returns an error. A blob of any version other
// than streamStateVersion is refused.

const streamStateVersion = 2

// ErrFinished reports an attempt to checkpoint a Stream after Finish:
// finishing consumes the incremental state (censored lifetimes, flushed
// intervals), so a finished stream is not resumable.
var ErrFinished = errors.New("analyzer: cannot checkpoint a finished Stream")

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodeBool(buf []byte) (bool, []byte, error) {
	if len(buf) < 1 {
		return false, nil, stats.ErrCorruptState
	}
	return buf[0] != 0, buf[1:], nil
}

func (a *activityAccum) appendState(buf []byte) []byte {
	buf = stats.AppendVarint(buf, int64(a.width))
	buf = stats.AppendVarint(buf, a.current)
	buf = appendBool(buf, a.started)
	buf = stats.AppendVarint(buf, int64(a.row.MaxActiveUsers))
	buf = a.row.ActiveUsers.AppendState(buf)
	buf = a.row.PerUserThroughput.AppendState(buf)
	buf = stats.AppendUvarint(buf, uint64(len(a.users)))
	ids := make([]trace.UserID, 0, len(a.users))
	for u := range a.users {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, u := range ids {
		buf = stats.AppendUvarint(buf, uint64(u))
		buf = stats.AppendVarint(buf, a.users[u])
	}
	return buf
}

func (a *activityAccum) decodeState(buf []byte) ([]byte, error) {
	w, buf, err := stats.DecodeVarint(buf)
	if err != nil {
		return nil, err
	}
	if trace.Time(w) != a.width {
		return nil, fmt.Errorf("analyzer: checkpoint interval %v, stream has %v", trace.Time(w), a.width)
	}
	if a.current, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if a.started, buf, err = decodeBool(buf); err != nil {
		return nil, err
	}
	var x int64
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	a.row.MaxActiveUsers = int(x)
	if buf, err = a.row.ActiveUsers.DecodeState(buf); err != nil {
		return nil, err
	}
	if buf, err = a.row.PerUserThroughput.DecodeState(buf); err != nil {
		return nil, err
	}
	n, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, stats.ErrCorruptState
	}
	a.users = make(map[trace.UserID]int64, n)
	for i := uint64(0); i < n; i++ {
		var u uint64
		var b int64
		if u, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if b, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		a.users[trace.UserID(u)] = b
	}
	return buf, nil
}

// MarshalBinary serializes the stream's complete incremental state. It
// must be called from the feeding goroutine or with the same external
// synchronization as Feed. It fails on a finished stream.
func (s *Stream) MarshalBinary() ([]byte, error) {
	if s.finished {
		return nil, ErrFinished
	}
	buf := stats.AppendUvarint(nil, streamStateVersion)

	// Partial Analysis scalars (CDFs and finish-time fields are derived).
	an := s.an
	buf = stats.AppendVarint(buf, int64(an.Overall.Duration))
	for _, c := range an.Overall.Counts.ByKind {
		buf = stats.AppendVarint(buf, c)
	}
	buf = stats.AppendVarint(buf, an.Overall.Counts.Total)
	buf = stats.AppendVarint(buf, an.Overall.BytesTransferred)
	buf = stats.AppendVarint(buf, an.Overall.BytesRead)
	buf = stats.AppendVarint(buf, an.Overall.BytesWritten)
	for c := ModeClass(0); c < numClasses; c++ {
		buf = stats.AppendVarint(buf, an.Sequentiality.Accesses[c])
		buf = stats.AppendVarint(buf, an.Sequentiality.WholeFile[c])
		buf = stats.AppendVarint(buf, an.Sequentiality.Sequential[c])
	}
	buf = stats.AppendVarint(buf, an.Sequentiality.BytesTotal)
	buf = stats.AppendVarint(buf, an.Sequentiality.BytesWholeFile)
	buf = stats.AppendVarint(buf, an.Sequentiality.BytesSequential)
	buf = stats.AppendVarint(buf, an.Lifetimes.NewFiles)
	buf = stats.AppendVarint(buf, an.Lifetimes.DeadFiles)

	// Histograms, in the fixed field order of the struct.
	for _, h := range s.histograms() {
		buf = h.AppendState(buf)
	}

	// Activity accumulators (their widths pin the Options used).
	buf = s.longAcc.appendState(buf)
	buf = s.shortAcc.appendState(buf)

	// User / open / live-file / share tables, sorted.
	buf = stats.AppendUvarint(buf, uint64(len(s.usersSeen)))
	users := make([]trace.UserID, 0, len(s.usersSeen))
	for u := range s.usersSeen {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		buf = stats.AppendUvarint(buf, uint64(u))
	}

	buf = stats.AppendUvarint(buf, uint64(len(s.openUser)))
	opens := make([]trace.OpenID, 0, len(s.openUser))
	for o := range s.openUser {
		opens = append(opens, o)
	}
	sort.Slice(opens, func(i, j int) bool { return opens[i] < opens[j] })
	for _, o := range opens {
		buf = stats.AppendUvarint(buf, uint64(o))
		buf = stats.AppendUvarint(buf, uint64(s.openUser[o]))
	}

	buf = stats.AppendUvarint(buf, uint64(len(s.lives)))
	lives := make([]trace.FileID, 0, len(s.lives))
	for f := range s.lives {
		lives = append(lives, f)
	}
	sort.Slice(lives, func(i, j int) bool { return lives[i] < lives[j] })
	for _, f := range lives {
		st := s.lives[f]
		buf = stats.AppendUvarint(buf, uint64(f))
		buf = stats.AppendVarint(buf, int64(st.birth))
		buf = stats.AppendVarint(buf, st.bytes)
	}

	buf = stats.AppendUvarint(buf, uint64(len(s.shares)))
	shared := make([]trace.FileID, 0, len(s.shares))
	for f := range s.shares {
		shared = append(shared, f)
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
	for _, f := range shared {
		sh := s.shares[f]
		buf = stats.AppendUvarint(buf, uint64(f))
		buf = stats.AppendUvarint(buf, uint64(sh.first))
		buf = stats.AppendVarint(buf, int64(sh.users))
		buf = stats.AppendVarint(buf, sh.accesses)
	}

	// Transfer scanner.
	buf = s.sc.AppendState(buf)

	// Record bytes and delta base, so EncodedSize stays continuous
	// across a restore.
	buf = stats.AppendVarint(buf, s.recBytes)
	return stats.AppendVarint(buf, int64(s.prev)), nil
}

// histograms returns the stream's histograms in serialization order.
func (s *Stream) histograms() []*stats.Histogram {
	return []*stats.Histogram{
		s.runLenRuns, s.runLenBytes, s.sizeFiles, s.sizeBytes,
		s.openTimes, s.lifeFiles, s.lifeBytes, s.gaps,
	}
}

// RestoreStream rebuilds a Stream from a MarshalBinary blob. The
// returned stream continues exactly where the original stopped: Feed the
// remaining events and Finish, and every result is byte-identical to an
// uninterrupted run. opts must equal the original stream's Options (the
// zero Options works for streams created with it); a mismatch is
// detected and reported.
func RestoreStream(data []byte, opts Options) (*Stream, error) {
	ver, buf, err := stats.DecodeUvarint(data)
	if err != nil {
		return nil, err
	}
	if ver != streamStateVersion {
		return nil, fmt.Errorf("analyzer: stream state version %d, want %d", ver, streamStateVersion)
	}
	s := NewStream(opts)
	an := s.an

	var x int64
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	an.Overall.Duration = trace.Time(x)
	for i := range an.Overall.Counts.ByKind {
		if an.Overall.Counts.ByKind[i], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
	}
	if an.Overall.Counts.Total, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Overall.BytesTransferred, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Overall.BytesRead, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Overall.BytesWritten, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	for c := ModeClass(0); c < numClasses; c++ {
		if an.Sequentiality.Accesses[c], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if an.Sequentiality.WholeFile[c], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if an.Sequentiality.Sequential[c], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
	}
	if an.Sequentiality.BytesTotal, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Sequentiality.BytesWholeFile, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Sequentiality.BytesSequential, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Lifetimes.NewFiles, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Lifetimes.DeadFiles, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}

	for _, h := range s.histograms() {
		if buf, err = h.DecodeState(buf); err != nil {
			return nil, err
		}
	}

	if buf, err = s.longAcc.decodeState(buf); err != nil {
		return nil, err
	}
	if buf, err = s.shortAcc.decodeState(buf); err != nil {
		return nil, err
	}

	n, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, stats.ErrCorruptState
	}
	s.usersSeen = make(map[trace.UserID]bool, n)
	for i := uint64(0); i < n; i++ {
		var u uint64
		if u, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		s.usersSeen[trace.UserID(u)] = true
	}

	if n, buf, err = stats.DecodeUvarint(buf); err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, stats.ErrCorruptState
	}
	s.openUser = make(map[trace.OpenID]trace.UserID, n)
	for i := uint64(0); i < n; i++ {
		var o, u uint64
		if o, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if u, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		s.openUser[trace.OpenID(o)] = trace.UserID(u)
	}

	if n, buf, err = stats.DecodeUvarint(buf); err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, stats.ErrCorruptState
	}
	s.lives = make(map[trace.FileID]*lifeState, n)
	for i := uint64(0); i < n; i++ {
		var f uint64
		var birth, bytes int64
		if f, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if birth, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if bytes, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		s.lives[trace.FileID(f)] = &lifeState{birth: trace.Time(birth), bytes: bytes}
	}

	if n, buf, err = stats.DecodeUvarint(buf); err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, stats.ErrCorruptState
	}
	s.shares = make(map[trace.FileID]*fileShare, n)
	for i := uint64(0); i < n; i++ {
		var f, first uint64
		var users, accesses int64
		if f, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if first, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if users, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if accesses, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		s.shares[trace.FileID(f)] = &fileShare{
			first: trace.UserID(first), users: int(users), accesses: accesses,
		}
	}

	if buf, err = s.sc.DecodeState(buf); err != nil {
		return nil, err
	}

	if s.recBytes, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	s.prev = trace.Time(x)
	if len(buf) != 0 {
		return nil, fmt.Errorf("analyzer: %d trailing bytes after stream state", len(buf))
	}
	return s, nil
}

// Events returns the number of events fed so far (restored across a
// checkpoint): the stream's position in the trace.
func (s *Stream) Events() int64 { return s.an.Overall.Counts.Total }

// LastTime returns the time of the last event fed: the delta base a
// resumed encoder of the same stream must continue from.
func (s *Stream) LastTime() trace.Time { return s.an.Overall.Duration }
