package ffs

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Replay drives the allocator with the file population implied by a
// trace: files are (re)allocated at each close to the size the transfer
// reconstruction derives, resized on truncate, and freed on unlink. The
// result quantifies the paper's §6.3 remark about disk-space waste as a
// function of block size.
//
// Files that exist before the trace begins are allocated when first seen
// (at their size-at-open), so the steady-state population — not just the
// trace's new files — occupies the disk.
type ReplayResult struct {
	Geometry Geometry
	// Final is the utilization when the trace ends; PeakAllocated and
	// PeakData track the high-water marks.
	Final         Usage
	PeakAllocated int64
	PeakData      int64
	// LiveFiles is the file population at the end; Failed counts
	// allocations refused for lack of space (zero unless the disk
	// geometry is too small for the trace).
	LiveFiles int
	Failed    int64
}

// popOp is one step of a trace's file-population history: place (id is
// (re)allocated at size) or, with place false, free. The history is a
// pure function of the trace — no disk geometry enters into it — so one
// extraction serves every geometry a sweep replays.
type popOp struct {
	place bool
	id    trace.FileID
	size  int64
}

// populationOps extracts the file-population history of a trace: files
// are (re)sized at each close to the size the transfer reconstruction
// derives, at first sight (pre-existing files, at their size-at-open),
// and on truncate; unlinks free them. Closes that leave a file's size
// unchanged emit nothing.
func populationOps(src trace.Source) ([]popOp, error) {
	var ops []popOp
	sizes := make(map[trace.FileID]int64)
	place := func(id trace.FileID, size int64) {
		ops = append(ops, popOp{place: true, id: id, size: size})
		sizes[id] = size
	}
	sc := xfer.NewScanner()
	sc.OnOpenEnd = func(o xfer.OpenSummary) {
		if cur, ok := sizes[o.File]; ok && cur == o.SizeAtClose {
			return // unchanged
		}
		place(o.File, o.SizeAtClose)
	}
	feed := func(e trace.Event) {
		switch e.Kind {
		case trace.KindOpen:
			// First sight of a pre-existing file: allocate it.
			if _, ok := sizes[e.File]; !ok && e.Size > 0 {
				place(e.File, e.Size)
			}
		case trace.KindTruncate:
			if sz, ok := sizes[e.File]; ok && sz != e.Size {
				place(e.File, e.Size)
			}
		case trace.KindUnlink:
			if _, ok := sizes[e.File]; ok {
				ops = append(ops, popOp{id: e.File})
				delete(sizes, e.File)
			}
		}
		sc.Feed(e)
	}
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
			feed(e)
		}
	}
	sc.Finish()
	if errs := sc.Errs(); len(errs) > 0 {
		return nil, fmt.Errorf("ffs: malformed trace: %v", errs[0])
	}
	return ops, nil
}

// replayPop drives a population history against a fresh disk.
func replayPop(ops []popOp, geo Geometry) (*ReplayResult, error) {
	return replayWith(ops, geo, (*Disk).Realloc)
}

// replayWith is replayPop with the resize step as a parameter, so tests
// can replay the same history through a reference implementation.
func replayWith(ops []popOp, geo Geometry, realloc func(*Disk, *File, int64) (*File, error)) (*ReplayResult, error) {
	disk, err := NewDisk(geo)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{Geometry: geo}
	files := make(map[trace.FileID]*File)
	for _, op := range ops {
		if !op.place {
			if f, ok := files[op.id]; ok {
				disk.Free(f)
				delete(files, op.id)
			}
			continue
		}
		f, err := realloc(disk, files[op.id], op.size)
		if err != nil {
			res.Failed++
			delete(files, op.id)
			continue
		}
		files[op.id] = f
		if disk.allocated > res.PeakAllocated {
			res.PeakAllocated = disk.allocated
		}
		if disk.dataBytes > res.PeakData {
			res.PeakData = disk.dataBytes
		}
	}
	res.Final = disk.Usage()
	res.LiveFiles = len(files)
	return res, nil
}

// WasteSweepRow is one block size's result of WasteSweepSource, which
// replays the trace across block sizes, with fragments (FFS style, 8 per
// block where the block size allows) and without (the old file system's
// whole-block allocation), reporting the internal fragmentation of each
// configuration.
type WasteSweepRow struct {
	BlockSize   int64
	FragWaste   float64 // waste fraction with FFS fragments
	NoFragWaste float64 // waste fraction with whole-block allocation
	FragAlloc   int64
	NoFragAlloc int64
	DataBytes   int64
}

// WasteSweepSource runs the §6.3 experiment over an event stream. The
// population history is geometry-independent, so it is extracted from the
// stream once — one pass, no event materialization. The sweep's replays
// are independent: each owns its Disk and only reads the shared history,
// so they run on up to GOMAXPROCS workers, each result landing in its
// geometry's slot. Every replay is deterministic, so the rows are the same
// at any GOMAXPROCS.
func WasteSweepSource(src trace.Source, blockSizes []int64) ([]WasteSweepRow, error) {
	ops, err := populationOps(src)
	if err != nil {
		return nil, err
	}
	return wasteSweepOps(ops, blockSizes)
}

// wasteSweepOps replays a population history at every sweep geometry.
func wasteSweepOps(ops []popOp, blockSizes []int64) ([]WasteSweepRow, error) {
	geos := sweepGeometries(blockSizes)
	results := make([]*ReplayResult, len(geos))
	errs := make([]error, len(geos))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(geos)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(geos)); i = next.Add(1) - 1 {
				results[i], errs[i] = replayPop(ops, geos[i])
			}
		}()
	}
	wg.Wait()
	rows := make([]WasteSweepRow, 0, len(blockSizes))
	for i, bs := range blockSizes {
		if err := cmp.Or(errs[2*i], errs[2*i+1]); err != nil {
			return nil, err
		}
		withFrag, without := results[2*i], results[2*i+1]
		if withFrag.Failed > 0 || without.Failed > 0 {
			return nil, fmt.Errorf("ffs: disk too small at block size %d (%d failed allocations)",
				bs, withFrag.Failed+without.Failed)
		}
		rows = append(rows, WasteSweepRow{
			BlockSize:   bs,
			FragWaste:   withFrag.Final.WasteFraction,
			NoFragWaste: without.Final.WasteFraction,
			FragAlloc:   withFrag.Final.AllocatedBytes,
			NoFragAlloc: without.Final.AllocatedBytes,
			DataBytes:   withFrag.Final.DataBytes,
		})
	}
	return rows, nil
}

// sweepGeometries returns the disks WasteSweepSource replays: for block size
// i, slot 2i is FFS style — fragments of an eighth of a block but at
// least 512 bytes — and slot 2i+1 whole blocks only; both have 16
// cylinder groups of 64 MB each.
func sweepGeometries(blockSizes []int64) []Geometry {
	geos := make([]Geometry, 0, 2*len(blockSizes))
	for _, bs := range blockSizes {
		geo := Geometry{BlockSize: bs, FragSize: min(max(bs/8, 512), bs), Groups: 16, BlocksPerGroup: int(64 << 20 / bs)}
		geos = append(geos, geo)
		geo.FragSize = bs
		geos = append(geos, geo)
	}
	return geos
}
