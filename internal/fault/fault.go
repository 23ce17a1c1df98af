// Package fault measures the reliability half of the paper's write-policy
// trade by injecting crashes into the cache simulation.
//
// Section 6.2 weighs write policies by the disk traffic they generate,
// but the paper's argument for the 30-second flush-back (and against pure
// delayed writes) is about what a crash loses: write-through loses
// nothing, a flush-back cache loses at most the data dirtied since the
// last scan — bounded by one flush interval — and a delayed-write cache
// risks everything dirtied since a block's last eviction, potentially the
// whole trace. This package quantifies that: a crash at time t loses
// exactly the blocks dirty in the cache at t, and the age of each dirty
// block (time since it was dirtied) is how long the user believed that
// data was safe.
//
// The measurement follows the tape engine's reuse discipline: one replay
// per residency group (configs that differ only in write policy share
// one), not one per crash point. A crash observer (the
// cachesim.Observer hookup) maintains a shadow dirty set with
// dirtied-since timestamps as the replay runs; because observer callbacks
// arrive in nondecreasing time order — overdue flush-back scans execute
// at their scheduled boundaries, not at the catching-up event's clock —
// the shadow set's state when the callback stream passes a sampled crash
// instant is exactly the cache's dirty set at that instant. N crash
// points therefore cost one replay plus N cheap snapshots, and the
// snapshots of one replay, laid end to end, are the configuration's
// vulnerability timeline over the trace. Equivalence with the obvious
// N-replay implementation (truncate the tape at each crash point, replay,
// count dirty blocks) is enforced by TestCrashReplayMatchesTruncatedReplays.
package fault

import (
	"fmt"
	"sort"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Loss is the data at risk at one sampled crash instant: the dirty
// blocks a crash at exactly Time would have destroyed. A block dirtied
// at or before Time counts; a flush scheduled at or before Time has
// already saved its blocks. Bytes is block-granular (Blocks times the
// configuration's block size), as the simulator is.
type Loss struct {
	Time   trace.Time
	Blocks int64
	Bytes  int64
	// MaxAge is the age of the oldest dirty block (how long ago it was
	// dirtied); MeanAge the mean over dirty blocks. Both are zero when
	// nothing would be lost. Under flush-back, MaxAge can never reach
	// the flush interval: anything older was written by an earlier scan.
	MaxAge  trace.Time
	MeanAge trace.Time
}

// Report is one configuration's crash exposure: the loss at every
// sampled crash point of one replay, in time order.
type Report struct {
	Config cachesim.Config
	// Result is the traffic side of the same replay — the crash sweep
	// piggybacks on a full simulation, so Table VI's numbers and the
	// reliability numbers come from one pass.
	Result *cachesim.Result
	Points []Loss
	// AgeCDF is the distribution of dirty-data ages in seconds across
	// all sampled crash points, weighted by block: "when a crash hits,
	// how stale is the data it destroys?"
	AgeCDF stats.CDF
}

// MeanLossBytes is the expected loss of a crash at a uniformly sampled
// point: the mean of Bytes over the crash points (0 for no points).
func (r *Report) MeanLossBytes() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	var sum int64
	for _, p := range r.Points {
		sum += p.Bytes
	}
	return float64(sum) / float64(len(r.Points))
}

// MaxLoss returns the worst sampled crash point (the zero Loss for no
// points).
func (r *Report) MaxLoss() Loss {
	var max Loss
	for _, p := range r.Points {
		if p.Bytes > max.Bytes {
			max = p
		}
	}
	return max
}

// MaxAge returns the oldest would-be-lost data over all crash points.
func (r *Report) MaxAge() trace.Time {
	var max trace.Time
	for _, p := range r.Points {
		if p.MaxAge > max {
			max = p.MaxAge
		}
	}
	return max
}

// VulnerableFraction is the fraction of sampled crash points at which a
// crash loses anything at all.
func (r *Report) VulnerableFraction() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	var n int
	for _, p := range r.Points {
		if p.Blocks > 0 {
			n++
		}
	}
	return float64(n) / float64(len(r.Points))
}

// Points samples n crash instants evenly across the tape's time span:
// k*end/n for k = 1..n, where end is the tape's last op time. An empty
// tape (or n <= 0) yields none. Evenly spaced points make the per-point
// losses a vulnerability timeline and the mean an unbiased estimate of a
// uniformly random crash's loss.
func Points(tape *xfer.Tape, n int) []trace.Time {
	if n <= 0 || len(tape.Ops) == 0 {
		return nil
	}
	end := tape.Ops[len(tape.Ops)-1].Time
	pts := make([]trace.Time, n)
	for k := 1; k <= n; k++ {
		pts[k-1] = end * trace.Time(k) / trace.Time(n)
	}
	return pts
}

// tracker is the crash observer: a shadow dirty set keyed by dense block
// ID, holding each block's dirtied-since time. Crash points are
// finalized lazily — when the first callback strictly after a point
// arrives, the shadow set is exactly the cache's dirty set at that
// point (callbacks at the point's own instant are part of the crash
// state, so ties wait).
type tracker struct {
	cfg    cachesim.Config
	points []trace.Time
	next   int
	dirty  map[int32]trace.Time
	losses []Loss
	ages   *stats.Histogram
}

func newTracker(cfg cachesim.Config, points []trace.Time) *tracker {
	return &tracker{
		cfg:    cfg,
		points: points,
		dirty:  make(map[int32]trace.Time),
		losses: make([]Loss, 0, len(points)),
		// Ages span well under a second to a whole trace, like residency.
		ages: stats.NewLogHistogram(0.01, 1.35, 60),
	}
}

// BlockDirtied and BlockCleaned implement cachesim.Observer.
func (t *tracker) BlockDirtied(id int32, now trace.Time) {
	t.catchUp(now)
	t.dirty[id] = now
}

func (t *tracker) BlockCleaned(id int32, now trace.Time, _ cachesim.CleanReason) {
	t.catchUp(now)
	delete(t.dirty, id)
}

// catchUp finalizes every crash point the callback stream has passed.
func (t *tracker) catchUp(now trace.Time) {
	for t.next < len(t.points) && t.points[t.next] < now {
		t.snapshot(t.points[t.next])
		t.next++
	}
}

// finish finalizes the points the callback stream never reached, given
// the trace's last op time. Points at or before the end see the final
// dirty set; points beyond it account for the flush schedule continuing
// past the last traced event — the first flush-back scan after the trace
// ends cleans everything, so a late-enough crash under flush-back loses
// nothing. (The replay itself ran every scan scheduled at or before end.)
func (t *tracker) finish(end trace.Time) {
	for t.next < len(t.points) {
		p := t.points[t.next]
		if p > end && t.cfg.Write == cachesim.FlushBack {
			nextScan := (end/t.cfg.FlushInterval + 1) * t.cfg.FlushInterval
			if p >= nextScan {
				for id := range t.dirty {
					delete(t.dirty, id)
				}
			}
		}
		t.snapshot(p)
		t.next++
	}
}

// snapshot records the loss of a crash at time at. Map iteration order
// is irrelevant: counts, sums, maxima, and histogram adds all commute.
func (t *tracker) snapshot(at trace.Time) {
	l := Loss{Time: at}
	var sum trace.Time
	for _, since := range t.dirty {
		age := at - since
		l.Blocks++
		sum += age
		if age > l.MaxAge {
			l.MaxAge = age
		}
		t.ages.Add(age.Seconds(), 1)
	}
	l.Bytes = l.Blocks * t.cfg.BlockSize
	if l.Blocks > 0 {
		l.MeanAge = sum / trace.Time(l.Blocks)
	}
	t.losses = append(t.losses, l)
}

func (t *tracker) report(end trace.Time, res *cachesim.Result) *Report {
	t.finish(end)
	return &Report{Config: t.cfg, Result: res, Points: t.losses, AgeCDF: t.ages.CDF()}
}

// checkPoints validates and normalizes a crash-point list: points must
// be non-negative; they are sorted ascending (the lazy finalization
// walks them in time order).
func checkPoints(points []trace.Time) ([]trace.Time, error) {
	pts := make([]trace.Time, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	if len(pts) > 0 && pts[0] < 0 {
		return nil, fmt.Errorf("fault: negative crash point %v", pts[0])
	}
	return pts, nil
}

// CrashReplayTape replays one configuration over the tape once (a
// one-lane replay), sampling the dirty set at every crash point. The returned report's Result is a
// full traffic-side simulation result, identical to SimulateTape's.
func CrashReplayTape(tape *xfer.Tape, cfg cachesim.Config, points []trace.Time) (*Report, error) {
	rs, err := SweepTape(tape, []cachesim.Config{cfg}, points)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// SweepTape runs the crash sweep for every configuration over one shared
// tape: one replay per residency group (configs that differ only in
// write policy share one), on parallel workers via
// cachesim.MultiSimulateObserved, regardless of how many crash points
// are sampled; all configurations share the tape's per-block-size
// resolutions. The trackers of one group run on that replay's goroutine. Results are in configuration order and deterministic.
func SweepTape(tape *xfer.Tape, cfgs []cachesim.Config, points []trace.Time) ([]*Report, error) {
	pts, err := checkPoints(points)
	if err != nil {
		return nil, err
	}
	trackers := make([]*tracker, len(cfgs))
	results, err := cachesim.MultiSimulateObserved(tape, cfgs, func(i int) cachesim.Observer {
		trackers[i] = newTracker(cfgs[i], pts)
		return trackers[i]
	})
	if err != nil {
		return nil, err
	}
	var end trace.Time
	if len(tape.Ops) > 0 {
		end = tape.Ops[len(tape.Ops)-1].Time
	}
	out := make([]*Report, len(cfgs))
	for i, tr := range trackers {
		out[i] = tr.report(end, results[i])
	}
	return out, nil
}

// PolicySweepTape runs the crash sweep across write policies at one
// cache geometry — the reliability column the paper's Table VI implies
// but never measures. Results are in policy order.
func PolicySweepTape(tape *xfer.Tape, blockSize, cacheSize int64, policies []cachesim.PolicySpec, points []trace.Time) ([]*Report, error) {
	cfgs := make([]cachesim.Config, len(policies))
	for i, p := range policies {
		cfgs[i] = cachesim.Config{
			BlockSize:     blockSize,
			CacheSize:     cacheSize,
			Write:         p.Write,
			FlushInterval: p.Interval,
		}
	}
	return SweepTape(tape, cfgs, points)
}
