package cachesim

import (
	"fmt"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Working-set analysis (Denning's W(T)): how many distinct blocks a trace
// touches in windows of a given length. It is the classical explanation
// for where a miss-ratio curve bends — the Table VI knee sits where the
// cache first holds the working set of the reuse horizon that matters —
// and later disk trace studies (e.g. Ruemmler & Wilkes) report exactly
// this curve.

// WorkingSetPoint summarizes W(T) for one window length: the mean and
// maximum number of distinct blocks (and bytes) touched per non-
// overlapping window of length T.
type WorkingSetPoint struct {
	Window     trace.Time
	MeanBlocks float64
	MaxBlocks  int64
	// MeanBytes and MaxBytes are the block counts scaled by block size.
	MeanBytes float64
	MaxBytes  int64
	Windows   int64
}

// WorkingSetTape computes W(T) for each window length over the tape's
// block reference string (reads and writes alike; windows with no
// references count as empty windows if they fall inside the trace's
// span).
func WorkingSetTape(tape *xfer.Tape, blockSize int64, windows []trace.Time) ([]WorkingSetPoint, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cachesim: block size %d must be positive", blockSize)
	}
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("cachesim: window %v must be positive", w)
		}
	}
	r := resolvedFor(tape, blockSize)
	// The timed reference string: each true transfer's blocks at the
	// transfer's billing time. Op times are nondecreasing, so the last
	// op's time is the trace's span.
	type ref struct {
		t  trace.Time
		id int32
	}
	refs := make([]ref, 0, len(r.accessIDs))
	var last trace.Time
	for i := range tape.Ops {
		op := &tape.Ops[i]
		if op.Time > last {
			last = op.Time
		}
		if op.Kind != xfer.OpTransfer {
			continue
		}
		t := tape.Transfers[op.Ref].Time
		for _, id := range r.accessIDs[r.accessOff[op.Ref]:r.accessOff[op.Ref+1]] {
			refs = append(refs, ref{t: t, id: id})
		}
	}

	// seen stamps each block with the last window that touched it,
	// avoiding a per-window clear.
	seen := make([]int64, r.nBlocks())
	for i := range seen {
		seen[i] = -1
	}
	out := make([]WorkingSetPoint, 0, len(windows))
	for wi, w := range windows {
		p := WorkingSetPoint{Window: w}
		var agg stats.Welford
		cur := int64(0)
		var n int64
		stamp := int64(wi)<<32 | 0 // unique per (window length, window index)
		flushTo := func(idx int64) {
			for cur < idx {
				agg.Add(float64(n))
				if n > p.MaxBlocks {
					p.MaxBlocks = n
				}
				n = 0
				cur++
				stamp++
			}
		}
		for _, rf := range refs {
			flushTo(int64(rf.t / w))
			if seen[rf.id] != stamp {
				seen[rf.id] = stamp
				n++
			}
		}
		flushTo(int64(last/w) + 1)
		p.Windows = agg.N()
		p.MeanBlocks = agg.Mean()
		p.MeanBytes = p.MeanBlocks * float64(blockSize)
		p.MaxBytes = p.MaxBlocks * blockSize
		out = append(out, p)
	}
	return out, nil
}
