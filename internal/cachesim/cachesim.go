// Package cachesim implements the trace-driven disk block cache simulator
// of Section 6 of the paper.
//
// The simulated cache holds fixed-size blocks of file data, replaced LRU
// (other policies are available as ablations). Reconstructed transfers are
// divided into block accesses; a referenced block absent from the cache
// costs a disk read unless the access is about to overwrite the block's
// every valid byte, and modified blocks cost disk writes according to the
// write policy:
//
//   - write-through: every modification writes the block to disk at once;
//   - flush-back: the cache is scanned at a fixed interval and every block
//     modified since the last scan is written (the paper evaluates 30-second
//     and 5-minute intervals; the classic UNIX sync daemon is the 30-second
//     point);
//   - delayed-write: a dirty block is written only when it is ejected.
//
// Unlinks, truncations, and overwriting creates purge the dead blocks from
// the cache; a dirty block that dies in the cache never reaches the disk at
// all, which is the mechanism behind the paper's headline result that large
// delayed-write caches eliminate most write traffic.
//
// The principal metric is the miss ratio: disk I/O operations divided by
// logical block accesses (paper §6.1).
//
// # The transfer tape
//
// Reconstructing transfers from the event stream costs as much as
// simulating them, and the paper's evaluation replays the same trace into
// dozens of configurations (four write policies × six cache sizes in
// Table VI alone). The simulator therefore runs off an xfer.Tape: the
// transfer stream plus its interleaved control operations, materialized
// once per trace. Transfers are expressed in bytes, so one tape serves
// every block size; per block size the tape is "resolved" once into dense
// integer block IDs (shared read-only by all configurations at that
// size), and each replay runs array-indexed — no event scanning, no
// hashing. No replacement policy reads a block's dirty state, so the
// configurations that differ only in write policy share one replay, each
// as a lane of it (see lane). MultiSimulate runs many configurations
// over one tape, one replay per residency group, on parallel workers; a
// single configuration is a one-lane replay (SimulateTape). Tapes are the
// only simulation input: build one from raw events with xfer.NewTape.
package cachesim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// WritePolicy selects when modified blocks are written to disk.
type WritePolicy uint8

// Write policies (paper §6.2).
const (
	WriteThrough WritePolicy = iota
	FlushBack
	DelayedWrite
)

// String names the policy as the paper's Table VI does.
func (p WritePolicy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case FlushBack:
		return "flush-back"
	case DelayedWrite:
		return "delayed-write"
	}
	return "write-policy(?)"
}

// UnixCacheSize is the paper's "typical 4.2 BSD" configuration: about 10%
// of a VAX's main memory, 390 kbytes.
const UnixCacheSize = 390 * 1024

// Config parameterizes one simulation.
type Config struct {
	// BlockSize is the cache block size in bytes (paper default 4096).
	BlockSize int64
	// CacheSize is the cache capacity in bytes; the block count is
	// CacheSize/BlockSize, rounded down, minimum one block.
	CacheSize int64
	// Write is the write policy; FlushInterval applies to FlushBack.
	Write         WritePolicy
	FlushInterval trace.Time
	// Replacement selects the eviction policy (default LRU, as in the
	// paper).
	Replacement Replacement
	// Seed feeds the Random replacement policy.
	Seed int64
	// SimulatePaging approximates program loading by forcing a
	// whole-file read of each executed file at exec time (Figure 7).
	SimulatePaging bool
	// NoPurge disables the removal of dead blocks on unlink, truncate,
	// and overwrite; dirty dead blocks then get written at eviction as
	// if they were live. Ablation A4: how much of delayed-write's win is
	// death-before-ejection?
	NoPurge bool
	// BillAtStart bills each transfer at the beginning of its run
	// (the open or previous seek) instead of the paper's choice of the
	// ending event. Ablation A3: sensitivity to the no-read-write time
	// imprecision.
	BillAtStart bool
	// ResidencyThreshold is the residency cutoff reported by
	// Result.ResidencyOver (paper §6.2 reports blocks resident longer
	// than 20 minutes). Default 20 minutes.
	ResidencyThreshold trace.Time
}

func (c *Config) fill() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("cachesim: block size %d must be positive", c.BlockSize)
	}
	if c.CacheSize <= 0 {
		return fmt.Errorf("cachesim: cache size %d must be positive", c.CacheSize)
	}
	if c.Replacement >= numReplacements {
		return fmt.Errorf("cachesim: unknown replacement policy %d", c.Replacement)
	}
	if c.Write == FlushBack && c.FlushInterval <= 0 {
		return fmt.Errorf("cachesim: flush-back needs a positive interval")
	}
	if c.Write != FlushBack && c.FlushInterval != 0 {
		// A stray interval on a non-flushing policy is a config mixup
		// (most likely a sweep reusing a flush-back Config); accepting it
		// silently would let two configs that look different simulate
		// identically.
		return fmt.Errorf("cachesim: %v takes no flush interval (got %v)", c.Write, c.FlushInterval)
	}
	if c.ResidencyThreshold <= 0 {
		c.ResidencyThreshold = 20 * trace.Minute
	}
	return nil
}

// Result is the outcome of one simulation.
type Result struct {
	Config Config
	// LogicalAccesses counts block accesses; ReadAccesses and
	// WriteAccesses split them by direction.
	LogicalAccesses int64
	ReadAccesses    int64
	WriteAccesses   int64
	// DiskReads counts block fetches from disk; DiskWrites counts block
	// write-backs (or write-throughs).
	DiskReads  int64
	DiskWrites int64
	// Evictions counts capacity evictions; Purged counts blocks removed
	// because their data died; DirtyDiscarded counts purged blocks that
	// were dirty — writes the disk never saw.
	Evictions      int64
	Purged         int64
	DirtyDiscarded int64
	// DirtyAtEnd counts blocks still dirty when the trace ended.
	DirtyAtEnd int64
	// Residency is the CDF of block cache residency times in seconds
	// (blocks still cached at the end contribute their elapsed
	// residency). ResidencyOver is the fraction resident longer than
	// Config.ResidencyThreshold.
	Residency     stats.CDF
	ResidencyOver float64
}

// DiskIOs returns the total disk operations.
func (r *Result) DiskIOs() int64 { return r.DiskReads + r.DiskWrites }

// MissRatio returns disk I/Os per logical block access (paper §6.1), or 0
// for an empty trace.
func (r *Result) MissRatio() float64 {
	if r.LogicalAccesses == 0 {
		return 0
	}
	return float64(r.DiskIOs()) / float64(r.LogicalAccesses)
}

// WriteFraction returns the fraction of logical accesses that were writes
// (the paper observes about one third).
func (r *Result) WriteFraction() float64 {
	if r.LogicalAccesses == 0 {
		return 0
	}
	return float64(r.WriteAccesses) / float64(r.LogicalAccesses)
}

// NeverWrittenFraction returns the fraction of dirtied blocks whose data
// died in the cache and so never reached the disk. Blocks still dirty at
// the end of the trace count as eventual writes, so a big cache cannot
// claim credit merely for outliving the trace. The paper reports about
// 75% for a 16-Mbyte delayed-write cache.
func (r *Result) NeverWrittenFraction() float64 {
	total := r.DirtyDiscarded + r.DiskWrites + r.DirtyAtEnd
	if total == 0 {
		return 0
	}
	return float64(r.DirtyDiscarded) / float64(total)
}

// block is one cache frame. The intrusive fields (prev/next/slot/
// referenced) belong to the replacement policy. dirty holds one bit per
// lane: bit i is set while the block is modified but unwritten under
// lane i's write policy.
type block struct {
	id         int32
	referenced bool
	slot       int
	dirty      uint64
	enteredAt  trace.Time
	prev, next *block
}

// maxLanes is the most write policies one replay carries: the width of
// block.dirty.
const maxLanes = 64

// lane is one configuration's share of a replay: the state its write
// policy decides. No replacement policy reads a block's dirty state, so
// configurations that differ only in write policy (and flush interval)
// hold the same resident set at every instant; one cache replays them
// all, each as a lane that sees exactly what a replay of its own
// configuration alone would.
type lane struct {
	cfg       Config
	nextFlush trace.Time
	// dirties are flush-back scan candidates in the order they were
	// dirtied. Entries can go stale (the block was evicted or purged, and
	// its frame possibly recycled); the authoritative bit is the lane's
	// bit of b.dirty, so a scan flushes each dirty frame exactly once and
	// skips the rest. Maintained only under FlushBack.
	dirties []*block

	diskWrites     int64
	dirtyDiscarded int64
	dirtyAtEnd     int64

	// onDisk observes every disk operation (used by the two-level
	// simulation, where a client's "disk" is the server).
	onDisk func(id int32, write bool, t trace.Time)
	// obs observes the dirty-set lifecycle (used by the crash-injection
	// layer in internal/fault). Nil for plain simulations.
	obs Observer
}

// diskWrite counts one block write at time t and notifies onDisk.
func (l *lane) diskWrite(id int32, t trace.Time) {
	l.diskWrites++
	if l.onDisk != nil {
		l.onDisk(id, true, t)
	}
}

// cache is the live replay state shared by one residency group over one
// resolved tape: the resident set, the replacer, the clock, and the
// counters every lane's Result has in common.
type cache struct {
	// cfg holds the fields every lane shares; its Write and
	// FlushInterval are the first lane's and mean nothing here.
	cfg      Config
	tape     *xfer.Tape
	r        *resolved
	capacity int
	// res counts what every lane shares: accesses, disk reads,
	// evictions and purges. finish fills in each lane's own fields.
	res Result

	// blocks is the cache directory, indexed by dense block ID (nil =
	// not cached).
	blocks []*block
	pol    replacer
	lanes  []lane

	// Lane masks, one bit per lane: writeThrough and holding split the
	// lanes by whether a modification is written at once or marks the
	// block dirty; flushing are the FlushBack lanes; noting are the
	// lanes to visit when a block turns dirty (scan lists or observers);
	// reporting are the lanes with an onDisk observer.
	writeThrough, holding, flushing, noting, reporting uint64
	// nextScan is the earliest flush boundary of any flushing lane.
	nextScan trace.Time

	now trace.Time
	// freeList recycles evicted block frames; the simulator allocates at
	// most capacity+1 frames over its whole run, keeping long sweeps off
	// the garbage collector's back.
	freeList  *block
	residency *stats.Histogram
	resOver   int64
	resTotal  int64
}

// newCache builds the replay of one residency group: cfgs must agree in
// every field but Write and FlushInterval, and number 1 to maxLanes.
func newCache(tape *xfer.Tape, r *resolved, cfgs []Config) *cache {
	cfg := cfgs[0]
	capacity := int(cfg.CacheSize / cfg.BlockSize)
	if capacity < 1 {
		capacity = 1
	}
	c := &cache{
		cfg:      cfg,
		tape:     tape,
		r:        r,
		capacity: capacity,
		blocks:   make([]*block, r.nBlocks()),
		pol:      newReplacer(cfg.Replacement, capacity, cfg.Seed),
		lanes:    make([]lane, len(cfgs)),
		nextScan: math.MaxInt64,
		// Residency spans 10 ms to days.
		residency: stats.NewLogHistogram(0.01, 1.35, 60),
	}
	for i, lc := range cfgs {
		bit := uint64(1) << i
		c.lanes[i].cfg = lc
		switch lc.Write {
		case WriteThrough:
			c.writeThrough |= bit
		case FlushBack:
			c.flushing |= bit
			c.noting |= bit
			c.lanes[i].nextFlush = lc.FlushInterval
			c.nextScan = min(c.nextScan, lc.FlushInterval)
			fallthrough
		default:
			c.holding |= bit
		}
	}
	return c
}

// watch attaches lane i's observers (either may be nil).
func (c *cache) watch(i int, onDisk func(id int32, write bool, t trace.Time), obs Observer) {
	l := &c.lanes[i]
	l.onDisk, l.obs = onDisk, obs
	bit := uint64(1) << i
	if onDisk != nil {
		c.reporting |= bit
	}
	if obs != nil {
		c.noting |= bit
	}
}

// advance moves the clock forward, running any flush-back scans that came
// due. The clock never moves backwards (the BillAtStart ablation can
// present slightly out-of-order times; they are processed at the current
// clock).
func (c *cache) advance(t trace.Time) {
	if t >= c.nextScan {
		c.flushDue(t)
	}
	if t > c.now {
		c.now = t
	}
}

// flushDue runs every flush-back scan due by t, lane by lane. Overdue
// scans execute at their scheduled times, in order, before the clock
// catches up to t: a scan due at 30 s that is only discovered by an
// event at 100 s still writes its blocks at clock 30 s, so onDisk
// timestamps and crash-loss windows are exact. A lane's scans touch only
// its own dirty bits and counters, so lanes scan independently.
func (c *cache) flushDue(t trace.Time) {
	c.nextScan = math.MaxInt64
	for m := c.flushing; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		l := &c.lanes[i]
		bit := uint64(1) << i
		for l.nextFlush <= t {
			at := max(l.nextFlush, c.now)
			for _, b := range l.dirties {
				if b.dirty&bit != 0 {
					b.dirty &^= bit
					l.diskWrite(b.id, at)
					if l.obs != nil {
						l.obs.BlockCleaned(b.id, at, CleanFlushed)
					}
				}
			}
			l.dirties = l.dirties[:0]
			l.nextFlush += l.cfg.FlushInterval
		}
		c.nextScan = min(c.nextScan, l.nextFlush)
	}
}

func (c *cache) recordResidency(b *block) {
	d := c.now - b.enteredAt
	c.residency.Add(d.Seconds(), 1)
	c.resTotal++
	if d > c.cfg.ResidencyThreshold {
		c.resOver++
	}
}

// diskRead counts a block fetch, which every lane shares, and notifies
// the lanes' onDisk observers.
func (c *cache) diskRead(id int32) {
	c.res.DiskReads++
	for m := c.reporting; m != 0; m &= m - 1 {
		c.lanes[bits.TrailingZeros64(m)].onDisk(id, false, c.now)
	}
}

// drop removes a block from the cache. In each lane where the block is
// dirty, writeBack costs a disk write; otherwise the dirty block is
// discarded and counted in that lane's DirtyDiscarded.
func (c *cache) drop(b *block, writeBack bool) {
	for m := b.dirty; m != 0; m &= m - 1 {
		l := &c.lanes[bits.TrailingZeros64(m)]
		if writeBack {
			l.diskWrite(b.id, c.now)
			if l.obs != nil {
				l.obs.BlockCleaned(b.id, c.now, CleanWriteBack)
			}
		} else {
			l.dirtyDiscarded++
			if l.obs != nil {
				l.obs.BlockCleaned(b.id, c.now, CleanDiscarded)
			}
		}
	}
	b.dirty = 0
	c.recordResidency(b)
	c.blocks[b.id] = nil
	c.pol.remove(b)
	b.next = c.freeList
	c.freeList = b
}

// purge removes every cached block of the file slot whose byte range
// starts at or beyond size (size 0 purges the whole file), in ascending
// block order. Dirty purged blocks are dead data and cost no disk write.
func (c *cache) purge(fs int32, size int64) {
	if c.cfg.NoPurge {
		return
	}
	ids := c.r.fileBlocks[fs]
	// Doomed blocks satisfy idx*blockSize >= size, i.e. idx >=
	// ceil(size/blockSize); they form a suffix of the sorted ID list.
	bound := (size + c.cfg.BlockSize - 1) / c.cfg.BlockSize
	lo := sort.Search(len(ids), func(k int) bool { return c.r.blockIdx[ids[k]] >= bound })
	for _, id := range ids[lo:] {
		if b := c.blocks[id]; b != nil {
			c.res.Purged++
			c.drop(b, false)
		}
	}
}

// insert adds a block, evicting a victim if the cache is full.
func (c *cache) insert(id int32) *block {
	for c.pol.len() >= c.capacity {
		v := c.pol.victim()
		if v == nil {
			break
		}
		c.res.Evictions++
		c.drop(v, true)
	}
	b := c.freeList
	if b != nil {
		c.freeList = b.next
		*b = block{id: id, enteredAt: c.now}
	} else {
		b = &block{id: id, enteredAt: c.now}
	}
	c.blocks[id] = b
	c.pol.insert(b)
	return b
}

// markDirty applies every lane's write policy to a modified block:
// write-through lanes write it at once, the others mark it dirty.
func (c *cache) markDirty(b *block) {
	for m := c.writeThrough; m != 0; m &= m - 1 {
		c.lanes[bits.TrailingZeros64(m)].diskWrite(b.id, c.now)
	}
	fresh := c.holding &^ b.dirty
	b.dirty |= fresh
	for m := fresh & c.noting; m != 0; m &= m - 1 {
		l := &c.lanes[bits.TrailingZeros64(m)]
		if l.cfg.Write == FlushBack {
			l.dirties = append(l.dirties, b)
		}
		if l.obs != nil {
			l.obs.BlockDirtied(b.id, c.now)
		}
	}
}

// transfer simulates the block accesses of tape transfer xi.
func (c *cache) transfer(xi int32) {
	t := &c.tape.Transfers[xi]
	when := t.Time
	if c.cfg.BillAtStart {
		when = t.Start
	}
	c.advance(when)

	bs := c.cfg.BlockSize
	oldSize := c.tape.OldSizes[xi]
	ids := c.r.accessIDs[c.r.accessOff[xi]:c.r.accessOff[xi+1]]
	for _, id := range ids {
		c.res.LogicalAccesses++
		if t.Write {
			c.res.WriteAccesses++
		} else {
			c.res.ReadAccesses++
		}
		if b := c.blocks[id]; b != nil {
			c.pol.access(b)
			if t.Write {
				c.markDirty(b)
			}
			continue
		}
		// Miss. A read always fetches. A write fetches only if the
		// block holds valid bytes outside the written range: the run
		// covers [t.Offset, t.End()) and bytes beyond oldSize are not
		// valid data, so a full-block overwrite or an append into
		// fresh space needs no read (paper §6.1).
		fetch := true
		if t.Write {
			blockStart := c.r.blockIdx[id] * bs
			blockEnd := blockStart + bs
			headValid := t.Offset > blockStart && oldSize > blockStart
			tailValid := t.End() < blockEnd && oldSize > t.End()
			fetch = headValid || tailValid
		}
		if fetch {
			c.diskRead(id)
		}
		b := c.insert(id)
		if t.Write {
			c.markDirty(b)
		}
	}
}

// run replays the whole tape.
func (c *cache) run() {
	ops := c.tape.Ops
	for i := range ops {
		op := &ops[i]
		c.advance(op.Time)
		switch op.Kind {
		case xfer.OpPurge:
			c.purge(op.Ref, op.Size)
		case xfer.OpTransfer:
			c.transfer(op.Ref)
		case xfer.OpExec:
			if c.cfg.SimulatePaging {
				c.transfer(op.Ref)
			}
		}
	}
}

// finish closes out the replay, recording residency for blocks still
// cached and counting blocks still dirty, and returns one Result per
// lane, in lane order. Each Result owns its Residency slice.
func (c *cache) finish() []*Result {
	for _, b := range c.blocks {
		if b == nil {
			continue
		}
		for m := b.dirty; m != 0; m &= m - 1 {
			c.lanes[bits.TrailingZeros64(m)].dirtyAtEnd++
		}
		c.recordResidency(b)
	}
	if c.resTotal > 0 {
		c.res.ResidencyOver = float64(c.resOver) / float64(c.resTotal)
	}
	out := make([]*Result, len(c.lanes))
	for i := range c.lanes {
		l := &c.lanes[i]
		r := c.res
		r.Config = l.cfg
		r.DiskWrites = l.diskWrites
		r.DirtyDiscarded = l.dirtyDiscarded
		r.DirtyAtEnd = l.dirtyAtEnd
		r.Residency = c.residency.CDF()
		out[i] = &r
	}
	return out
}

// simulateResolved replays one configuration: a one-lane replay.
func simulateResolved(tape *xfer.Tape, r *resolved, cfg Config, obs Observer) *Result {
	c := newCache(tape, r, []Config{cfg})
	c.watch(0, nil, obs)
	c.run()
	return c.finish()[0]
}

// SimulateTape runs one cache simulation by replaying a transfer tape.
// The per-block-size resolution is memoized on the tape, so repeated
// calls (and MultiSimulate sweeps) against one tape share it.
func SimulateTape(tape *xfer.Tape, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return simulateResolved(tape, resolvedFor(tape, cfg.BlockSize), cfg, nil), nil
}

// MultiSimulate replays one tape into every configuration and returns
// the results in configuration order. It runs one replay per residency
// group (configs that differ only in write policy share one), sharded
// across parallel workers. Each result is identical to what SimulateTape
// would produce for that configuration alone: replay order is fixed by
// the tape, so grouping, worker count and scheduling cannot affect any
// result. All configurations are validated before any work starts.
func MultiSimulate(tape *xfer.Tape, cfgs []Config) ([]*Result, error) {
	return MultiSimulateObserved(tape, cfgs, nil)
}

// CountTapeAccesses returns the number of logical block accesses a tape
// generates at the given block size — pure arithmetic over the
// transfers, no simulation.
func CountTapeAccesses(tape *xfer.Tape, blockSize int64, simulatePaging bool) int64 {
	var n int64
	for i := range tape.Ops {
		op := &tape.Ops[i]
		if op.Kind == xfer.OpTransfer || (op.Kind == xfer.OpExec && simulatePaging) {
			t := &tape.Transfers[op.Ref]
			if t.Length <= 0 {
				// xfer.NewTape never emits an empty run (see the tape
				// invariant test there), but the span arithmetic below
				// would count one access for a zero-length run whose
				// (End-1)/blockSize truncates into Offset's block, so
				// guard against hand-built tapes.
				continue
			}
			n += (t.End()-1)/blockSize - t.Offset/blockSize + 1
		}
	}
	return n
}
