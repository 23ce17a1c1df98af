package cachesim

import (
	"runtime"
	"sync"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// runParallel executes jobs 0..n-1 on up to GOMAXPROCS workers and
// returns the first error. Simulations are pure functions of (tape,
// config), so sweeps parallelize without affecting determinism.
func runParallel(n int, job func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// PolicySpec names one write-policy column of the paper's Table VI.
type PolicySpec struct {
	Name     string
	Write    WritePolicy
	Interval trace.Time
}

// PaperPolicies returns the four write policies of Table VI in the
// paper's column order: write-through, 30-second flush, 5-minute flush,
// delayed-write.
func PaperPolicies() []PolicySpec {
	return []PolicySpec{
		{Name: "Write-Through", Write: WriteThrough},
		{Name: "30 sec Flush", Write: FlushBack, Interval: 30 * trace.Second},
		{Name: "5 min Flush", Write: FlushBack, Interval: 5 * trace.Minute},
		{Name: "Delayed Write", Write: DelayedWrite},
	}
}

// PaperCacheSizes returns the cache sizes of Table VI: the 390-kbyte UNIX
// configuration and 1 through 16 megabytes.
func PaperCacheSizes() []int64 {
	return []int64{UnixCacheSize, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
}

// PaperBlockSizes returns the block sizes of Table VII: 1 through 32
// kbytes.
func PaperBlockSizes() []int64 {
	return []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
}

// PaperBlockCacheSizes returns the cache sizes of Table VII: 400 kbytes
// and 2, 4, 8 megabytes.
func PaperBlockCacheSizes() []int64 {
	return []int64{400 << 10, 2 << 20, 4 << 20, 8 << 20}
}

// PolicySweepTape regenerates Table VI / Figure 5 from a tape: miss
// ratio as a function of cache size and write policy at a fixed block
// size. The result is indexed [cacheSize][policy].
func PolicySweepTape(tape *xfer.Tape, blockSize int64, cacheSizes []int64, policies []PolicySpec) ([][]*Result, error) {
	cfgs := make([]Config, 0, len(cacheSizes)*len(policies))
	for _, cs := range cacheSizes {
		for _, p := range policies {
			cfgs = append(cfgs, Config{
				BlockSize:     blockSize,
				CacheSize:     cs,
				Write:         p.Write,
				FlushInterval: p.Interval,
			})
		}
	}
	rs, err := MultiSimulate(tape, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]*Result, len(cacheSizes))
	for i := range out {
		out[i] = rs[i*len(policies) : (i+1)*len(policies) : (i+1)*len(policies)]
	}
	return out, nil
}

// BlockSizeSweepResult holds Table VII / Figure 6: disk I/Os as a
// function of block size and cache size under delayed-write. Results is
// indexed [blockSize][cacheSize]; Accesses[i] is the no-cache logical
// block access count for BlockSizes[i] (the table's first column).
type BlockSizeSweepResult struct {
	BlockSizes []int64
	CacheSizes []int64
	Accesses   []int64
	Results    [][]*Result
}

// BlockSizeSweepTape runs the Table VII experiment over a tape.
func BlockSizeSweepTape(tape *xfer.Tape, blockSizes, cacheSizes []int64) (*BlockSizeSweepResult, error) {
	cfgs := make([]Config, 0, len(blockSizes)*len(cacheSizes))
	for _, bs := range blockSizes {
		for _, cs := range cacheSizes {
			cfgs = append(cfgs, Config{BlockSize: bs, CacheSize: cs, Write: DelayedWrite})
		}
	}
	rs, err := MultiSimulate(tape, cfgs)
	if err != nil {
		return nil, err
	}
	out := &BlockSizeSweepResult{
		BlockSizes: blockSizes,
		CacheSizes: cacheSizes,
		Accesses:   make([]int64, len(blockSizes)),
		Results:    make([][]*Result, len(blockSizes)),
	}
	for i := range blockSizes {
		out.Results[i] = rs[i*len(cacheSizes) : (i+1)*len(cacheSizes) : (i+1)*len(cacheSizes)]
		out.Accesses[i] = out.Results[i][0].LogicalAccesses
	}
	return out, nil
}

// PagingSweepTape regenerates Figure 7 from a tape: delayed-write miss
// ratios across cache sizes with and without simulated program page-in.
// The result is indexed [cacheSize][0 = ignored, 1 = simulated].
func PagingSweepTape(tape *xfer.Tape, blockSize int64, cacheSizes []int64) ([][2]*Result, error) {
	cfgs := make([]Config, 0, len(cacheSizes)*2)
	for _, cs := range cacheSizes {
		for j := 0; j < 2; j++ {
			cfgs = append(cfgs, Config{
				BlockSize:      blockSize,
				CacheSize:      cs,
				Write:          DelayedWrite,
				SimulatePaging: j == 1,
			})
		}
	}
	rs, err := MultiSimulate(tape, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][2]*Result, len(cacheSizes))
	for i := range out {
		out[i][0] = rs[i*2]
		out[i][1] = rs[i*2+1]
	}
	return out, nil
}

// replacementOrder fixes the policy order of ReplacementSweepTape.
var replacementOrder = []Replacement{LRU, FIFO, Clock, Random}

// ReplacementSweepTape runs ablation A1 over a tape: all four
// replacement policies at one cache configuration, delayed-write.
func ReplacementSweepTape(tape *xfer.Tape, blockSize, cacheSize int64, seed int64) (map[Replacement]*Result, error) {
	cfgs := make([]Config, 0, len(replacementOrder))
	for _, rp := range replacementOrder {
		cfgs = append(cfgs, Config{
			BlockSize:   blockSize,
			CacheSize:   cacheSize,
			Write:       DelayedWrite,
			Replacement: rp,
			Seed:        seed,
		})
	}
	rs, err := MultiSimulate(tape, cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[Replacement]*Result, len(replacementOrder))
	for i, rp := range replacementOrder {
		out[rp] = rs[i]
	}
	return out, nil
}

// FlushIntervalSweepTape runs ablation A2 over a tape: flush-back across
// a range of intervals, bracketed by write-through (interval → 0) and
// delayed-write (interval → ∞).
func FlushIntervalSweepTape(tape *xfer.Tape, blockSize, cacheSize int64, intervals []trace.Time) ([]*Result, error) {
	cfgs := make([]Config, len(intervals))
	for i, iv := range intervals {
		cfgs[i] = Config{
			BlockSize:     blockSize,
			CacheSize:     cacheSize,
			Write:         FlushBack,
			FlushInterval: iv,
		}
	}
	return MultiSimulate(tape, cfgs)
}
