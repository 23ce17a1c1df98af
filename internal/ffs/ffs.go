// Package ffs implements the 4.2 BSD Fast File System's disk allocation
// scheme — full blocks plus block fragments — at the level of detail the
// paper's §6.3 discussion needs.
//
// The paper observes a tension: large blocks are attractive for the cache
// (Table VII) but waste disk space on small files, and then notes that the
// FFS design resolves it: "a scheme like the one in 4.2 BSD, which uses
// multiple block sizes on disk to avoid wasted space for small files,
// works well in conjunction with a fixed-block-size cache." This package
// makes that remark quantitative: a disk is divided into cylinder groups;
// a file's data occupies whole blocks except for its tail, which is packed
// into a run of contiguous fragments (at most 8 per block, as in FFS)
// shared with other files' tails. Replaying a trace's file population
// against the allocator measures internal fragmentation as a function of
// block size, with and without fragments (see Replay).
package ffs

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Geometry describes a simulated disk.
type Geometry struct {
	// BlockSize is the full block size in bytes; FragSize divides it
	// evenly (FFS allows 1, 2, 4, or 8 fragments per block). Setting
	// FragSize == BlockSize disables sub-block allocation, modeling the
	// old file system the FFS design replaced.
	BlockSize int64
	FragSize  int64
	// Groups and BlocksPerGroup size the disk: cylinder groups spread
	// allocations so related data stays together and free space stays
	// spread out.
	Groups         int
	BlocksPerGroup int
}

// Validate checks the geometry's internal consistency.
func (g Geometry) Validate() error {
	if g.BlockSize <= 0 || g.FragSize <= 0 {
		return errors.New("ffs: block and fragment sizes must be positive")
	}
	if g.BlockSize%g.FragSize != 0 {
		return fmt.Errorf("ffs: block size %d not a multiple of fragment size %d", g.BlockSize, g.FragSize)
	}
	if n := g.BlockSize / g.FragSize; n > 8 {
		return fmt.Errorf("ffs: %d fragments per block exceeds the FFS maximum of 8", n)
	}
	if g.Groups <= 0 || g.BlocksPerGroup <= 0 {
		return errors.New("ffs: need at least one cylinder group with at least one block")
	}
	return nil
}

// Capacity returns the disk's data capacity in bytes.
func (g Geometry) Capacity() int64 {
	return int64(g.Groups) * int64(g.BlocksPerGroup) * g.BlockSize
}

// ErrNoSpace is returned when an allocation cannot be satisfied.
var ErrNoSpace = errors.New("ffs: out of space")

// fragRange addresses a run of fragments within one block: a global
// fragment index plus a count.
type fragRange struct {
	start int64
	count int64
}

// File is an allocated file's on-disk footprint.
type File struct {
	size    int64   // logical bytes
	blocks  []int64 // full block indexes
	tail    fragRange
	hasTail bool
}

// Size returns the logical size.
func (f *File) Size() int64 { return f.size }

// Blocks returns the number of full blocks plus tail fragments the file
// occupies.
func (f *File) Blocks() (full int, tailFrags int64) {
	return len(f.blocks), f.tail.count
}

// bitset is a set of block numbers, one bit each.
type bitset []uint64

func (s bitset) has(i int64) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s bitset) set(i int64)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) clear(i int64)    { s[i/64] &^= 1 << (i % 64) }

// next returns the lowest member in [from, to), or -1.
func (s bitset) next(from, to int64) int64 {
	for from < to {
		if w := s[from/64] >> (from % 64); w != 0 {
			if i := from + int64(bits.TrailingZeros64(w)); i < to {
				return i
			}
			return -1
		}
		from = (from/64 + 1) * 64
	}
	return -1
}

// maxFragsPer is the FFS limit on fragments per block.
const maxFragsPer = 8

// group is a cylinder group's search state: its block range and, per
// free-run class, a low-water mark below which the class holds none of
// the group's blocks, so searches skip the exhausted prefix. A mark moves
// down only when a block joins the class below it.
type group struct {
	lo, hi int64 // the group's blocks are [lo, hi)
	mark   [maxFragsPer + 1]int64
}

// Disk is the allocator state. Blocks are indexed by their longest run of
// free fragments — FFS keeps the same summary per cylinder group — and
// every search takes the lowest-numbered fitting block, so placement is a
// pure function of the operation sequence.
type Disk struct {
	geo      Geometry
	fragsPer int64 // fragments per block
	bitmap   []uint64
	// byRun[r] holds the blocks whose longest free run is r fragments:
	// byRun[fragsPer] the wholly free blocks, byRun[1..fragsPer-1] the
	// partially used ones. Full blocks are in no set.
	byRun  []bitset
	groups []group

	freeFrags int64
	dataBytes int64 // logical bytes stored
	allocated int64 // fragment bytes allocated
	nextGroup int
}

// NewDisk creates an empty disk.
func NewDisk(geo Geometry) (*Disk, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	fragsPer := geo.BlockSize / geo.FragSize
	totalBlocks := int64(geo.Groups) * int64(geo.BlocksPerGroup)
	d := &Disk{
		geo:       geo,
		fragsPer:  fragsPer,
		bitmap:    make([]uint64, (totalBlocks*fragsPer+63)/64),
		byRun:     make([]bitset, fragsPer+1),
		groups:    make([]group, geo.Groups),
		freeFrags: totalBlocks * fragsPer,
	}
	for r := int64(1); r <= fragsPer; r++ {
		d.byRun[r] = make(bitset, (totalBlocks+63)/64)
	}
	for b := int64(0); b < totalBlocks; b++ {
		d.byRun[fragsPer].set(b)
	}
	for g := range d.groups {
		lo := int64(g) * int64(geo.BlocksPerGroup)
		d.groups[g] = group{lo: lo, hi: lo + int64(geo.BlocksPerGroup)}
		for r := range d.groups[g].mark {
			d.groups[g].mark[r] = lo
		}
	}
	return d, nil
}

// Geometry returns the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// FreeBytes returns the free space in bytes.
func (d *Disk) FreeBytes() int64 { return d.freeFrags * d.geo.FragSize }

func (d *Disk) isFree(frag int64) bool {
	return d.bitmap[frag/64]&(1<<(frag%64)) == 0
}

func (d *Disk) groupOf(block int64) *group {
	return &d.groups[block/int64(d.geo.BlocksPerGroup)]
}

// freeMask returns block b's free fragments, one bit each. fragsPer
// divides 64, so a block's fragments share one bitmap word.
func (d *Disk) freeMask(b int64) uint64 {
	start := b * d.fragsPer
	return ^(d.bitmap[start/64] >> (start % 64)) & (1<<d.fragsPer - 1)
}

// longestRun returns the length of the longest run of set bits in m.
func longestRun(m uint64) int64 {
	n := int64(0)
	for ; m != 0; n++ {
		m &= m >> 1
	}
	return n
}

// setRange marks a fragment range, which lies within one block, used or
// free. The block moves between byRun sets only when its longest free
// run changes.
func (d *Disk) setRange(r fragRange, use bool) {
	block := r.start / d.fragsPer
	before := longestRun(d.freeMask(block))
	mask := (uint64(1)<<r.count - 1) << (r.start % 64)
	if use {
		d.bitmap[r.start/64] |= mask
		d.freeFrags -= r.count
	} else {
		d.bitmap[r.start/64] &^= mask
		d.freeFrags += r.count
	}
	after := longestRun(d.freeMask(block))
	if after == before {
		return
	}
	if before > 0 {
		d.byRun[before].clear(block)
	}
	if after > 0 {
		d.byRun[after].set(block)
		if g := d.groupOf(block); block < g.mark[after] {
			g.mark[after] = block
		}
	}
}

// lowest returns group g's lowest block whose longest free run is r, or
// -1, advancing the class's low-water mark past the empty prefix.
func (d *Disk) lowest(g *group, r int64) int64 {
	b := d.byRun[r].next(g.mark[r], g.hi)
	if b < 0 {
		g.mark[r] = g.hi
	} else {
		g.mark[r] = b
	}
	return b
}

// popFreeBlock finds the lowest wholly free block, preferring the given
// group. The block stays free until the caller marks it used.
func (d *Disk) popFreeBlock(pref int) (int64, bool) {
	for gi := 0; gi < d.geo.Groups; gi++ {
		if b := d.lowest(&d.groups[(pref+gi)%d.geo.Groups], d.fragsPer); b >= 0 {
			return b, true
		}
	}
	return 0, false
}

// runInBlock finds the first run of n contiguous free fragments inside
// block b, returning its start or -1.
func (d *Disk) runInBlock(b, n int64) int64 {
	free := d.freeMask(b)
	// After the loop, bit i is set iff fragments i..i+n-1 are all free.
	for i := int64(1); i < n && free != 0; i++ {
		free &= free >> 1
	}
	if free == 0 {
		return -1
	}
	return b*d.fragsPer + int64(bits.TrailingZeros64(free))
}

// allocTail places n fragments in the lowest partially used block with a
// free run that fits, preferring the given group (so tails pack together,
// the FFS policy), and falls back to breaking a free block.
func (d *Disk) allocTail(pref int, n int64) (fragRange, bool) {
	for gi := 0; gi < d.geo.Groups; gi++ {
		g := &d.groups[(pref+gi)%d.geo.Groups]
		best := int64(-1)
		for r := n; r < d.fragsPer; r++ {
			if b := d.lowest(g, r); b >= 0 && (best < 0 || b < best) {
				best = b
			}
		}
		if best >= 0 {
			return fragRange{start: d.runInBlock(best, n), count: n}, true
		}
	}
	if b, ok := d.popFreeBlock(pref); ok {
		return fragRange{start: b * d.fragsPer, count: n}, true
	}
	return fragRange{}, false
}

// Alloc places a file of the given size and returns its footprint.
// A zero-size file occupies no fragments.
func (d *Disk) Alloc(size int64) (*File, error) {
	f := &File{}
	if err := d.resize(f, size); err != nil {
		return nil, err
	}
	return f, nil
}

// frags returns the number of fragments a file occupies.
func (d *Disk) frags(f *File) int64 {
	return int64(len(f.blocks))*d.fragsPer + f.tail.count
}

// resize moves a file to a new size in place, as FFS extends and
// truncates a file: surviving full blocks stay where they are, only the
// difference is freed or allocated, and the tail is re-placed unless its
// block count and fragment count are both unchanged. New blocks go to
// the file's own cylinder group; an empty file takes the next group in
// rotation. On error the file's space is released entirely and it is
// left empty — the state freeing it and failing a fresh allocation would
// leave.
func (d *Disk) resize(f *File, size int64) error {
	if size < 0 {
		d.Free(f)
		return fmt.Errorf("ffs: negative size %d", size)
	}
	full := size / d.geo.BlockSize
	tailFrags := (size%d.geo.BlockSize + d.geo.FragSize - 1) / d.geo.FragSize
	oldFrags := d.frags(f)

	var pref int
	switch {
	case len(f.blocks) > 0:
		pref = int(f.blocks[0] / int64(d.geo.BlocksPerGroup))
	case f.hasTail:
		pref = int(f.tail.start / d.fragsPer / int64(d.geo.BlocksPerGroup))
	default:
		pref = d.nextGroup
		d.nextGroup = (d.nextGroup + 1) % d.geo.Groups
	}

	if f.hasTail && (int64(len(f.blocks)) != full || f.tail.count != tailFrags) {
		d.setRange(f.tail, false)
		f.tail, f.hasTail = fragRange{}, false
	}
	for int64(len(f.blocks)) > full {
		last := f.blocks[len(f.blocks)-1]
		f.blocks = f.blocks[:len(f.blocks)-1]
		d.setRange(fragRange{start: last * d.fragsPer, count: d.fragsPer}, false)
	}
	if grow := int(full) - len(f.blocks); grow > 0 {
		f.blocks = slices.Grow(f.blocks, grow) // size the slice once
	}
	for int64(len(f.blocks)) < full {
		b, ok := d.popFreeBlock(pref)
		if !ok {
			return d.fail(f, oldFrags)
		}
		d.setRange(fragRange{start: b * d.fragsPer, count: d.fragsPer}, true)
		f.blocks = append(f.blocks, b)
	}
	if tailFrags > 0 && !f.hasTail {
		tail, ok := d.allocTail(pref, tailFrags)
		if !ok {
			return d.fail(f, oldFrags)
		}
		d.setRange(tail, true)
		f.tail, f.hasTail = tail, true
	}
	d.dataBytes += size - f.size
	d.allocated += (d.frags(f) - oldFrags) * d.geo.FragSize
	f.size = size
	return nil
}

// fail releases everything a file holds mid-resize and settles the byte
// accounting for the footprint it had before.
func (d *Disk) fail(f *File, oldFrags int64) error {
	d.release(f)
	d.dataBytes -= f.size
	d.allocated -= oldFrags * d.geo.FragSize
	f.size = 0
	return ErrNoSpace
}

// release returns a file's fragments without touching the byte accounting.
func (d *Disk) release(f *File) {
	for _, b := range f.blocks {
		d.setRange(fragRange{start: b * d.fragsPer, count: d.fragsPer}, false)
	}
	f.blocks = f.blocks[:0]
	if f.hasTail {
		d.setRange(f.tail, false)
		f.tail, f.hasTail = fragRange{}, false
	}
}

// Free releases a file's space.
func (d *Disk) Free(f *File) {
	if f == nil {
		return
	}
	frags := d.frags(f)
	d.release(f)
	d.dataBytes -= f.size
	d.allocated -= frags * d.geo.FragSize
	f.size = 0
}

// Realloc resizes a file in place and returns it; from nil it allocates.
// Only the changed blocks and the tail move (see resize), so the cost is
// proportional to the change, not the file. On error the file's space has
// been released.
func (d *Disk) Realloc(f *File, size int64) (*File, error) {
	if f == nil {
		return d.Alloc(size)
	}
	if err := d.resize(f, size); err != nil {
		return nil, err
	}
	return f, nil
}

// Usage is a snapshot of disk utilization.
type Usage struct {
	// Capacity is the disk's data capacity; DataBytes the logical bytes
	// stored; AllocatedBytes the fragment bytes consumed.
	Capacity       int64
	DataBytes      int64
	AllocatedBytes int64
	FreeBytes      int64
	// WasteFraction is internal fragmentation: allocated bytes beyond
	// the logical data, as a fraction of allocated bytes.
	WasteFraction float64
	// FreeBlockFraction is the fraction of free fragments that form
	// whole free blocks — when it drops, large files can no longer be
	// placed even though space remains (external fragmentation).
	FreeBlockFraction float64
}

// Usage computes the current utilization snapshot.
func (d *Disk) Usage() Usage {
	u := Usage{
		Capacity:       d.geo.Capacity(),
		DataBytes:      d.dataBytes,
		AllocatedBytes: d.allocated,
		FreeBytes:      d.freeFrags * d.geo.FragSize,
	}
	if d.allocated > 0 {
		u.WasteFraction = float64(d.allocated-d.dataBytes) / float64(d.allocated)
	}
	var freeBlocks int64
	for _, w := range d.byRun[d.fragsPer] {
		freeBlocks += int64(bits.OnesCount64(w))
	}
	if d.freeFrags > 0 {
		freeBlockFrags := freeBlocks * d.fragsPer
		u.FreeBlockFraction = float64(freeBlockFrags) / float64(d.freeFrags)
	}
	return u
}

// checkInvariants verifies the bitmap, the free-run indexes, and the
// accounting agree; it is used by tests.
func (d *Disk) checkInvariants() error {
	var usedFrags int64
	totalBlocks := int64(d.geo.Groups) * int64(d.geo.BlocksPerGroup)
	for b := int64(0); b < totalBlocks; b++ {
		free := d.freeMask(b)
		usedFrags += d.fragsPer - int64(bits.OnesCount64(free))
		run := longestRun(free)
		for r := int64(1); r <= d.fragsPer; r++ {
			if d.byRun[r].has(b) != (r == run) {
				return fmt.Errorf("block %d: longest free run %d, but byRun[%d] membership %v", b, run, r, d.byRun[r].has(b))
			}
		}
		if run > 0 && b < d.groupOf(b).mark[run] {
			return fmt.Errorf("block %d: indexed below its group's low-water mark", b)
		}
	}
	if d.freeFrags != totalBlocks*d.fragsPer-usedFrags {
		return fmt.Errorf("freeFrags %d != %d", d.freeFrags, totalBlocks*d.fragsPer-usedFrags)
	}
	if d.allocated != usedFrags*d.geo.FragSize {
		return fmt.Errorf("allocated %d != used frag bytes %d", d.allocated, usedFrags*d.geo.FragSize)
	}
	return nil
}
