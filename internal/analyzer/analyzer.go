// Package analyzer implements the reference-pattern analyses of Section 5
// of the paper: overall trace statistics (Table III), system activity and
// per-user throughput (Table IV), sequentiality of access (Table V),
// sequential run lengths (Figure 1), dynamic file sizes (Figure 2), open
// durations (Figure 3), and the lifetimes of newly written data (Figure 4).
// It also measures the inter-event intervals that bound the accuracy of the
// no-read-write tracing approach (§3.1).
//
// The analyzer consumes a time-ordered event stream; transfers are
// reconstructed by the xfer package, so the analyzer and the cache
// simulator agree about what was transferred and when.
package analyzer

import (
	"io"
	"sort"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Options configures an analysis. The zero value selects the paper's
// parameters.
type Options struct {
	// LongInterval is the activity bucketing used for the "active over
	// ten-minute intervals" rows of Table IV. Default 10 minutes.
	LongInterval trace.Time
	// ShortInterval is the fine activity bucketing. Default 10 seconds.
	ShortInterval trace.Time
}

func (o *Options) fill() {
	if o.LongInterval <= 0 {
		o.LongInterval = 10 * trace.Minute
	}
	if o.ShortInterval <= 0 {
		o.ShortInterval = 10 * trace.Second
	}
}

// Overall mirrors Table III: one trace's headline numbers.
type Overall struct {
	// Duration is the time of the last event.
	Duration trace.Time
	// Counts tallies events by kind.
	Counts trace.Counts
	// EncodedSize is the size of the trace in the binary format, the
	// analogue of the paper's "size of trace file" row.
	EncodedSize int64
	// BytesTransferred is the total reconstructed data volume, split by
	// direction in BytesRead and BytesWritten.
	BytesTransferred int64
	BytesRead        int64
	BytesWritten     int64
	// UnclosedOpens counts opens still outstanding at the end of trace.
	UnclosedOpens int
}

// ActivityRow is Table IV's measurements at one interval width.
type ActivityRow struct {
	// Interval is the bucketing width.
	Interval trace.Time
	// ActiveUsers summarizes the number of active users per interval
	// (mean ± sd across all intervals in the trace).
	ActiveUsers stats.Welford
	// MaxActiveUsers is the greatest number of users active in any one
	// interval.
	MaxActiveUsers int
	// PerUserThroughput summarizes bytes-per-second per active user,
	// across all (interval, active user) pairs.
	PerUserThroughput stats.Welford
}

// Activity mirrors Table IV.
type Activity struct {
	// TotalUsers is the number of distinct users over the life of the
	// trace.
	TotalUsers int
	// AvgThroughput is total bytes transferred divided by trace duration.
	AvgThroughput float64
	// Long and Short are the ten-minute and ten-second interval rows.
	Long, Short ActivityRow
}

// ModeClass indexes the three access classes of Table V.
type ModeClass int

// Access classes.
const (
	ClassReadOnly ModeClass = iota
	ClassWriteOnly
	ClassReadWrite
	numClasses
)

// String names the class as the paper does.
func (c ModeClass) String() string {
	switch c {
	case ClassReadOnly:
		return "read-only"
	case ClassWriteOnly:
		return "write-only"
	case ClassReadWrite:
		return "read-write"
	}
	return "unknown"
}

func classOf(m trace.Mode) ModeClass {
	switch m {
	case trace.ReadOnly:
		return ClassReadOnly
	case trace.WriteOnly:
		return ClassWriteOnly
	default:
		return ClassReadWrite
	}
}

// Sequentiality mirrors Table V: counts of whole-file and sequential
// accesses by access class, and the byte volumes moved by each kind.
type Sequentiality struct {
	// Accesses counts completed opens per class.
	Accesses [numClasses]int64
	// WholeFile counts accesses that transferred the entire file
	// sequentially from beginning to end, per class.
	WholeFile [numClasses]int64
	// Sequential counts accesses whose bytes form a single sequential
	// run (whole-file transfers plus one-initial-reposition accesses).
	Sequential [numClasses]int64
	// BytesTotal, BytesWholeFile, and BytesSequential are the data
	// volumes moved by all, whole-file, and sequential accesses.
	BytesTotal      int64
	BytesWholeFile  int64
	BytesSequential int64
}

// WholeFileFraction returns the fraction of class-c accesses that were
// whole-file transfers.
func (s *Sequentiality) WholeFileFraction(c ModeClass) float64 {
	if s.Accesses[c] == 0 {
		return 0
	}
	return float64(s.WholeFile[c]) / float64(s.Accesses[c])
}

// SequentialFraction returns the fraction of class-c accesses that were
// sequential.
func (s *Sequentiality) SequentialFraction(c ModeClass) float64 {
	if s.Accesses[c] == 0 {
		return 0
	}
	return float64(s.Sequential[c]) / float64(s.Accesses[c])
}

// Sharing measures cross-user file sharing, a question the paper's
// related-work section raises (Porcar studied only shared files, under 10%
// of his system's files). A file is shared when more than one user opens
// or executes it during the trace; daemons (user 0) count like any user.
type Sharing struct {
	// FilesAccessed counts distinct files opened, created, or executed;
	// FilesShared those touched by more than one user.
	FilesAccessed int64
	FilesShared   int64
	// AccessesTotal counts opens, creates, and execs; AccessesToShared
	// those landing on shared files.
	AccessesTotal    int64
	AccessesToShared int64
}

// SharedFileFraction returns the fraction of accessed files that were
// shared between users.
func (s *Sharing) SharedFileFraction() float64 {
	if s.FilesAccessed == 0 {
		return 0
	}
	return float64(s.FilesShared) / float64(s.FilesAccessed)
}

// SharedAccessFraction returns the fraction of accesses that went to
// shared files.
func (s *Sharing) SharedAccessFraction() float64 {
	if s.AccessesTotal == 0 {
		return 0
	}
	return float64(s.AccessesToShared) / float64(s.AccessesTotal)
}

// Lifetimes holds the Figure 4 results.
type Lifetimes struct {
	// ByFiles is the CDF of new-file lifetimes weighted by file count;
	// ByBytes weights each file by the bytes written to it. Files still
	// alive at the end of the trace are censored into the top bucket.
	ByFiles, ByBytes stats.CDF
	// NewFiles counts files born during the trace (created, or truncated
	// to zero); DeadFiles counts those that also died during the trace.
	NewFiles, DeadFiles int64
}

// Analysis bundles every Section-5 result for one trace.
type Analysis struct {
	Overall       Overall
	Activity      Activity
	Sequentiality Sequentiality

	// RunLengthsByRuns and RunLengthsByBytes are Figure 1: cumulative
	// distributions of sequential run length, weighted by run count and
	// by bytes moved.
	RunLengthsByRuns, RunLengthsByBytes stats.CDF
	// FileSizesByFiles and FileSizesByBytes are Figure 2: dynamic file
	// size at close, weighted by accesses and by bytes transferred.
	FileSizesByFiles, FileSizesByBytes stats.CDF
	// OpenTimes is Figure 3: how long files stay open.
	OpenTimes stats.CDF
	// Lifetimes is Figure 4.
	Lifetimes Lifetimes
	// EventIntervals is the §3.1 measurement: the gaps between
	// successive trace events for the same open file, which bound the
	// times at which transfers actually happened.
	EventIntervals stats.CDF
	// Sharing measures cross-user file sharing (an extension beyond the
	// paper's own tables).
	Sharing Sharing
}

// lifeState tracks one live "new file" for the lifetime analysis.
type lifeState struct {
	birth trace.Time
	bytes int64
}

// fileShare tracks whether a file was touched by more than one user
// without storing the full user set.
type fileShare struct {
	first    trace.UserID
	users    int // 1 or 2 ("more than one")
	accesses int64
}

// activityAccum buckets user activity at one interval width.
type activityAccum struct {
	width   trace.Time
	current int64                  // current interval index
	users   map[trace.UserID]int64 // bytes per user this interval; presence == active
	scratch []trace.UserID         // reused per-flush sort buffer
	row     ActivityRow
	started bool
}

func newActivityAccum(width trace.Time) *activityAccum {
	return &activityAccum{width: width, users: make(map[trace.UserID]int64), row: ActivityRow{Interval: width}}
}

func (a *activityAccum) interval(t trace.Time) int64 { return int64(t / a.width) }

// advance flushes completed intervals up to (not including) the interval
// containing t.
func (a *activityAccum) advance(t trace.Time) {
	idx := a.interval(t)
	if !a.started {
		a.current = idx
		a.started = true
		return
	}
	for a.current < idx {
		a.flush()
		a.current++
	}
}

func (a *activityAccum) flush() {
	n := len(a.users)
	a.row.ActiveUsers.Add(float64(n))
	if n > a.row.MaxActiveUsers {
		a.row.MaxActiveUsers = n
	}
	secs := a.width.Seconds()
	// Feed the accumulator in user order: float summation isn't
	// associative, so map-iteration order would make the resulting
	// moments differ bitwise from run to run.
	a.scratch = a.scratch[:0]
	for u := range a.users {
		a.scratch = append(a.scratch, u)
	}
	sort.Slice(a.scratch, func(i, j int) bool { return a.scratch[i] < a.scratch[j] })
	for _, u := range a.scratch {
		a.row.PerUserThroughput.Add(float64(a.users[u]) / secs)
		delete(a.users, u)
	}
}

func (a *activityAccum) active(t trace.Time, u trace.UserID) {
	a.advance(t)
	if _, ok := a.users[u]; !ok {
		a.users[u] = 0
	}
}

func (a *activityAccum) bytes(t trace.Time, u trace.UserID, n int64) {
	a.advance(t)
	a.users[u] += n
}

// finish flushes the final partial interval.
func (a *activityAccum) finish() {
	if a.started {
		a.flush()
	}
}

// clone returns an independent copy whose finish leaves the original
// untouched. The row's Welford accumulators are plain values and copy
// with the struct; the scratch buffer is per-instance and starts empty.
func (a *activityAccum) clone() *activityAccum {
	c := &activityAccum{
		width:   a.width,
		current: a.current,
		users:   make(map[trace.UserID]int64, len(a.users)),
		row:     a.row,
		started: a.started,
	}
	for u, b := range a.users {
		c.users[u] = b
	}
	return c
}

// Stream is the incremental form of the Section-5 analysis: feed it a
// time-ordered event stream one event at a time and call Finish once at
// the end. Its working state is bounded by the trace's live population —
// open files, files alive or shared, the fixed histograms — never by the
// event count, so a stream of any length analyzes in roughly constant
// memory. Analyze is exactly a Stream fed from a slice; the two produce
// identical results by construction, and the equivalence tests pin that.
type Stream struct {
	an *Analysis

	// Histograms behind the CDFs. Bounds span the ranges the paper's
	// figures cover, with log spacing (linear for lifetimes, where the
	// 180-second daemon spike needs 1-second resolution).
	runLenRuns  *stats.Histogram
	runLenBytes *stats.Histogram
	sizeFiles   *stats.Histogram
	sizeBytes   *stats.Histogram
	openTimes   *stats.Histogram
	lifeFiles   *stats.Histogram
	lifeBytes   *stats.Histogram
	gaps        *stats.Histogram

	longAcc   *activityAccum
	shortAcc  *activityAccum
	usersSeen map[trace.UserID]bool
	openUser  map[trace.OpenID]trace.UserID
	lives     map[trace.FileID]*lifeState
	shares    map[trace.FileID]*fileShare

	sc *xfer.Scanner

	// recBytes is the length of the binary records of the events fed so
	// far and prev the delta base of the next one, so the trace's
	// EncodedSize is trace.HeaderLen + recBytes. rec is the reused
	// record buffer.
	recBytes int64
	prev     trace.Time
	rec      []byte

	finished bool
}

// NewStream creates an incremental analyzer.
func NewStream(opts Options) *Stream {
	opts.fill()
	s := &Stream{
		an:          &Analysis{},
		runLenRuns:  stats.NewLogHistogram(64, 1.3, 60), // bytes: 64 B .. ~400 MB
		runLenBytes: stats.NewLogHistogram(64, 1.3, 60),
		sizeFiles:   stats.NewLogHistogram(64, 1.3, 60),
		sizeBytes:   stats.NewLogHistogram(64, 1.3, 60),
		openTimes:   stats.NewLogHistogram(0.01, 1.25, 70), // seconds: 10 ms .. ~60 ks
		lifeFiles:   stats.NewLinearHistogram(600, 1),      // seconds, 1 s bins to 10 min
		lifeBytes:   stats.NewLinearHistogram(600, 1),
		gaps:        stats.NewLogHistogram(0.01, 1.25, 70), // seconds
		longAcc:     newActivityAccum(opts.LongInterval),
		shortAcc:    newActivityAccum(opts.ShortInterval),
		usersSeen:   make(map[trace.UserID]bool),
		openUser:    make(map[trace.OpenID]trace.UserID),
		lives:       make(map[trace.FileID]*lifeState),
		shares:      make(map[trace.FileID]*fileShare),
	}

	an := s.an
	s.sc = xfer.NewScanner()
	s.sc.OnTransfer = func(x xfer.Transfer) {
		an.Overall.BytesTransferred += x.Length
		if x.Write {
			an.Overall.BytesWritten += x.Length
		} else {
			an.Overall.BytesRead += x.Length
		}
		s.runLenRuns.Add(float64(x.Length), 1)
		s.runLenBytes.Add(float64(x.Length), float64(x.Length))
		s.longAcc.bytes(x.Time, x.User, x.Length)
		s.shortAcc.bytes(x.Time, x.User, x.Length)
		if x.Write {
			if st, ok := s.lives[x.File]; ok {
				st.bytes += x.Length
			}
		}
	}
	s.sc.OnOpenEnd = func(o xfer.OpenSummary) {
		c := classOf(o.Mode)
		seq := &an.Sequentiality
		seq.Accesses[c]++
		seq.BytesTotal += o.Bytes
		if o.WholeFile {
			seq.WholeFile[c]++
			seq.BytesWholeFile += o.Bytes
		}
		if o.Sequential {
			seq.Sequential[c]++
			seq.BytesSequential += o.Bytes
		}
		s.sizeFiles.Add(float64(o.SizeAtClose), 1)
		s.sizeBytes.Add(float64(o.SizeAtClose), float64(o.Bytes))
		s.openTimes.Add((o.CloseTime - o.OpenTime).Seconds(), 1)
	}
	s.sc.OnEventGap = func(g trace.Time) {
		s.gaps.Add(g.Seconds(), 1)
	}
	return s
}

// die closes out one live file for the lifetime analysis.
func (s *Stream) die(f trace.FileID, t trace.Time) {
	st, ok := s.lives[f]
	if !ok {
		return
	}
	age := (t - st.birth).Seconds()
	s.lifeFiles.Add(age, 1)
	s.lifeBytes.Add(age, float64(st.bytes))
	s.an.Lifetimes.DeadFiles++
	delete(s.lives, f)
}

// size adds e's binary record to the trace's encoded size. An event of
// an invalid kind has no record: it adds nothing and leaves the delta
// base where it was, as a Writer would.
func (s *Stream) size(e trace.Event) {
	if rec, err := trace.AppendRecord(s.rec[:0], s.prev, e); err == nil {
		s.rec = rec
		s.recBytes += int64(len(rec))
		s.prev = e.Time
	}
}

// Feed analyzes one event. Events must arrive in time order.
func (s *Stream) Feed(e trace.Event) {
	an := s.an
	an.Overall.Counts.Add(e)
	if e.Time > an.Overall.Duration {
		an.Overall.Duration = e.Time
	}
	s.size(e)

	// Sharing: record which users touch which files.
	switch e.Kind {
	case trace.KindCreate, trace.KindOpen, trace.KindExec:
		sh := s.shares[e.File]
		if sh == nil {
			sh = &fileShare{first: e.User, users: 1}
			s.shares[e.File] = sh
		} else if sh.users == 1 && e.User != sh.first {
			sh.users = 2
		}
		sh.accesses++
	}

	// Attribute the event to a user for the activity analysis.
	var user trace.UserID
	hasUser := false
	switch e.Kind {
	case trace.KindCreate, trace.KindOpen:
		user, hasUser = e.User, true
		s.openUser[e.OpenID] = e.User
	case trace.KindExec:
		user, hasUser = e.User, true
	case trace.KindClose, trace.KindSeek:
		if u, ok := s.openUser[e.OpenID]; ok {
			user, hasUser = u, true
		}
		if e.Kind == trace.KindClose {
			delete(s.openUser, e.OpenID)
		}
	}
	if hasUser {
		s.usersSeen[user] = true
		s.longAcc.active(e.Time, user)
		s.shortAcc.active(e.Time, user)
	}

	// Lifetime state machine (Figure 4): births at create and
	// truncate-to-zero, deaths at unlink, overwrite, and truncation.
	switch e.Kind {
	case trace.KindCreate:
		s.die(e.File, e.Time) // overwrite of previous incarnation
		s.lives[e.File] = &lifeState{birth: e.Time}
		an.Lifetimes.NewFiles++
	case trace.KindTruncate:
		if e.Size == 0 {
			s.die(e.File, e.Time)
			s.lives[e.File] = &lifeState{birth: e.Time}
			an.Lifetimes.NewFiles++
		}
	case trace.KindUnlink:
		s.die(e.File, e.Time)
	}

	s.sc.Feed(e)
}

// Snapshot returns the analysis of the stream so far, as if the trace
// ended at the last event fed: open intervals are flushed, files still
// alive are censored into the top lifetime bucket, and every CDF is
// materialized — exactly what Finish would report right now. Unlike
// Finish it does not disturb the incremental state: Feed may continue
// afterwards, and a later Finish (or Snapshot) produces byte-identical
// results whether or not Snapshot was ever called. After Finish,
// Snapshot returns the finished Analysis. Like Feed, Snapshot must be
// called from the feeding goroutine or with external synchronization.
func (s *Stream) Snapshot() *Analysis {
	if s.finished {
		return s.an
	}
	an := *s.an
	an.Overall.UnclosedOpens = s.sc.OpenCount()
	an.Overall.EncodedSize = trace.HeaderLen + s.recBytes

	const censored = 1e18
	lifeFiles := s.lifeFiles.Clone()
	lifeBytes := s.lifeBytes.Clone()
	for _, st := range s.lives {
		lifeFiles.Add(censored, 1)
		lifeBytes.Add(censored, float64(st.bytes))
	}

	longAcc := s.longAcc.clone()
	shortAcc := s.shortAcc.clone()
	longAcc.finish()
	shortAcc.finish()
	an.Activity.Long = longAcc.row
	an.Activity.Short = shortAcc.row
	an.Activity.TotalUsers = len(s.usersSeen)
	if an.Overall.Duration > 0 {
		an.Activity.AvgThroughput = float64(an.Overall.BytesTransferred) / an.Overall.Duration.Seconds()
	}

	an.Sharing = Sharing{}
	for _, sh := range s.shares {
		an.Sharing.FilesAccessed++
		an.Sharing.AccessesTotal += sh.accesses
		if sh.users > 1 {
			an.Sharing.FilesShared++
			an.Sharing.AccessesToShared += sh.accesses
		}
	}

	an.RunLengthsByRuns = s.runLenRuns.CDF()
	an.RunLengthsByBytes = s.runLenBytes.CDF()
	an.FileSizesByFiles = s.sizeFiles.CDF()
	an.FileSizesByBytes = s.sizeBytes.CDF()
	an.OpenTimes = s.openTimes.CDF()
	an.Lifetimes.ByFiles = lifeFiles.CDF()
	an.Lifetimes.ByBytes = lifeBytes.CDF()
	an.EventIntervals = s.gaps.CDF()
	return &an
}

// Finish completes the analysis and returns it. Further Feed calls after
// Finish are invalid; calling Finish again returns the same Analysis.
func (s *Stream) Finish() *Analysis {
	if s.finished {
		return s.an
	}
	s.finished = true
	an := s.an
	an.Overall.UnclosedOpens = s.sc.Finish()
	an.Overall.EncodedSize = trace.HeaderLen + s.recBytes

	// Censor survivors into the top bucket so the by-files and by-bytes
	// CDFs are normalized over all new files, as Figure 4 is.
	const censored = 1e18
	for _, st := range s.lives {
		s.lifeFiles.Add(censored, 1)
		s.lifeBytes.Add(censored, float64(st.bytes))
	}

	s.longAcc.finish()
	s.shortAcc.finish()
	an.Activity.Long = s.longAcc.row
	an.Activity.Short = s.shortAcc.row
	an.Activity.TotalUsers = len(s.usersSeen)
	if an.Overall.Duration > 0 {
		an.Activity.AvgThroughput = float64(an.Overall.BytesTransferred) / an.Overall.Duration.Seconds()
	}

	for _, sh := range s.shares {
		an.Sharing.FilesAccessed++
		an.Sharing.AccessesTotal += sh.accesses
		if sh.users > 1 {
			an.Sharing.FilesShared++
			an.Sharing.AccessesToShared += sh.accesses
		}
	}

	an.RunLengthsByRuns = s.runLenRuns.CDF()
	an.RunLengthsByBytes = s.runLenBytes.CDF()
	an.FileSizesByFiles = s.sizeFiles.CDF()
	an.FileSizesByBytes = s.sizeBytes.CDF()
	an.OpenTimes = s.openTimes.CDF()
	an.Lifetimes.ByFiles = s.lifeFiles.CDF()
	an.Lifetimes.ByBytes = s.lifeBytes.CDF()
	an.EventIntervals = s.gaps.CDF()
	return an
}

// Analyze runs the full Section-5 analysis over a time-ordered trace.
func Analyze(events []trace.Event, opts Options) *Analysis {
	s := NewStream(opts)
	for _, e := range events {
		s.Feed(e)
	}
	return s.Finish()
}

// AnalyzeSource pulls a time-ordered event stream to completion and
// analyzes it, one event at a time: the source's trace never needs to fit
// in memory. It is the entry point the command-line tools use on trace
// files (*trace.Reader is a Source) and merged shard streams.
func AnalyzeSource(src trace.Source, opts Options) (*Analysis, error) {
	s := NewStream(opts)
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
			s.Feed(e)
		}
	}
	return s.Finish(), nil
}
