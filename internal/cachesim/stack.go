package cachesim

import (
	"fmt"
	"sort"

	"bsdtrace/internal/xfer"
)

// StackResult holds a one-pass LRU stack-distance analysis (Mattson et
// al.'s classic algorithm) over a trace's block reference string.
//
// Where SimulateTape replays one cache configuration with full write-policy
// and purge semantics, the stack analysis computes the pure LRU reference
// miss ratio for *every* cache size simultaneously: by LRU's inclusion
// property, a reference hits in a cache of C blocks exactly when its reuse
// distance (the number of distinct blocks touched since the last reference
// to this block) is at most C. The resulting curve is how the trace-study
// literature summarizes a workload's locality, and bounds Table VI from
// below (the real simulator adds write-backs and subtracts purged dead
// blocks and whole-block overwrites). It also serves as an independent
// oracle for the transfer tape: an LRU cache of any size replaying the
// tape's reference string must miss exactly Misses times (see the
// tests).
type StackResult struct {
	BlockSize int64
	// References is the length of the block reference string;
	// ColdMisses the number of first-touches (infinite distance).
	References int64
	ColdMisses int64
	// hist[d] counts references with reuse distance d+1 (d distinct
	// blocks fit a hit in a cache of d+1 blocks... see MissRatio).
	hist []int64
}

// fenwick is a binary indexed tree over reference positions, counting the
// current "most recent position" markers of each block.
type fenwick struct {
	tree []int64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(i int, delta int64) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the count of markers at positions <= i.
func (f *fenwick) sum(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// StackDistancesTape computes the reuse-distance profile of a tape's
// block reference string at the given block size. Both read and write
// accesses count as references; deletions, overwrites, and synthesized
// exec page-ins are ignored (this is the pure locality profile, not the
// I/O count — see SimulateTape for that).
func StackDistancesTape(tape *xfer.Tape, blockSize int64) (*StackResult, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cachesim: block size %d must be positive", blockSize)
	}
	r := resolvedFor(tape, blockSize)
	refs := referenceString(tape, r)

	res := &StackResult{BlockSize: blockSize, References: int64(len(refs))}
	// Mattson via a Fenwick tree over positions. last[b] is the position
	// of b's previous reference; the number of distinct blocks referenced
	// since is the count of "latest position" markers after it.
	last := make([]int, r.nBlocks())
	for i := range last {
		last[i] = -1
	}
	f := newFenwick(len(refs))
	var maxDist int
	distCount := make(map[int]int64)
	for pos, b := range refs {
		if prev := last[b]; prev >= 0 {
			dist := int(f.sum(len(refs)-1) - f.sum(prev))
			// dist counts distinct blocks referenced strictly after
			// prev, excluding b itself (b's marker sits at prev).
			distCount[dist]++
			if dist > maxDist {
				maxDist = dist
			}
			f.add(prev, -1)
		} else {
			res.ColdMisses++
		}
		f.add(pos, 1)
		last[b] = pos
	}
	res.hist = make([]int64, maxDist+1)
	for d, c := range distCount {
		res.hist[d] = c
	}
	return res, nil
}

// referenceString extracts a tape's block reference string at the
// resolution's block size: the dense block IDs of every true transfer,
// in tape order (exec page-ins are synthetic, not references).
func referenceString(tape *xfer.Tape, r *resolved) []int32 {
	refs := make([]int32, 0, len(r.accessIDs))
	for i := range tape.Ops {
		op := &tape.Ops[i]
		if op.Kind == xfer.OpTransfer {
			refs = append(refs, r.accessIDs[r.accessOff[op.Ref]:r.accessOff[op.Ref+1]]...)
		}
	}
	return refs
}

// Misses returns the LRU reference miss count for a cache of the given
// byte capacity: a reference with reuse distance d hits iff the cache
// holds more than d blocks (the referenced block is at stack depth d+1).
func (r *StackResult) Misses(cacheBytes int64) int64 {
	capBlocks := int(cacheBytes / r.BlockSize)
	misses := r.ColdMisses
	for d := capBlocks; d < len(r.hist); d++ {
		misses += r.hist[d]
	}
	return misses
}

// MissRatio returns the LRU reference miss ratio at the given byte
// capacity.
func (r *StackResult) MissRatio(cacheBytes int64) float64 {
	if r.References == 0 {
		return 0
	}
	return float64(r.Misses(cacheBytes)) / float64(r.References)
}

// Curve evaluates the miss ratio at each cache size, sorted ascending.
func (r *StackResult) Curve(cacheSizes []int64) []float64 {
	sizes := append([]int64(nil), cacheSizes...)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	out := make([]float64, len(sizes))
	for i, cs := range sizes {
		out[i] = r.MissRatio(cs)
	}
	return out
}

// DistinctBlocks returns the number of distinct blocks referenced (the
// cold-miss count).
func (r *StackResult) DistinctBlocks() int64 { return r.ColdMisses }
