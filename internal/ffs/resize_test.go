package ffs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// reallocRef is the resize Realloc replaced, kept as the differential
// reference: free the whole file, then allocate it afresh.
func reallocRef(d *Disk, f *File, size int64) (*File, error) {
	if f != nil {
		d.Free(f)
	}
	return d.Alloc(size)
}

// TestReallocMatchesReference replays the A5 8-hour population history
// at every sweep geometry through the in-place Realloc and through the
// free-then-allocate reference. Placement differs, but every quantity
// that depends only on the sizes placed must agree exactly, and so must
// the sweep's rows.
func TestReallocMatchesReference(t *testing.T) {
	ops := a5PopulationHistory(t)
	var refRows []WasteSweepRow
	geos := sweepGeometries(sweepBlockSizes)
	refs := make([]*ReplayResult, len(geos))
	for i, geo := range geos {
		t.Run(fmt.Sprintf("%d-%d", geo.BlockSize, geo.FragSize), func(t *testing.T) {
			got, err := replayPop(ops, geo)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := replayWith(ops, geo, reallocRef)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"Final.AllocatedBytes", got.Final.AllocatedBytes, ref.Final.AllocatedBytes},
				{"Final.DataBytes", got.Final.DataBytes, ref.Final.DataBytes},
				{"Final.WasteFraction", got.Final.WasteFraction, ref.Final.WasteFraction},
				{"PeakAllocated", got.PeakAllocated, ref.PeakAllocated},
				{"PeakData", got.PeakData, ref.PeakData},
				{"LiveFiles", got.LiveFiles, ref.LiveFiles},
				{"Failed", got.Failed, ref.Failed},
			} {
				if c.got != c.want {
					t.Errorf("%s = %v, reference %v", c.name, c.got, c.want)
				}
			}
		})
	}
	for i, bs := range sweepBlockSizes {
		withFrag, without := refs[2*i], refs[2*i+1]
		if withFrag == nil || without == nil {
			t.FailNow() // a subtest already failed
		}
		refRows = append(refRows, WasteSweepRow{
			BlockSize:   bs,
			FragWaste:   withFrag.Final.WasteFraction,
			NoFragWaste: without.Final.WasteFraction,
			FragAlloc:   withFrag.Final.AllocatedBytes,
			NoFragAlloc: without.Final.AllocatedBytes,
			DataBytes:   withFrag.Final.DataBytes,
		})
	}
	rows, err := wasteSweepOps(ops, sweepBlockSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, refRows) {
		t.Errorf("sweep rows differ from the reference:\n got %+v\nwant %+v", rows, refRows)
	}
}

// TestReplayDeterministic replays one history repeatedly, concurrently
// at GOMAXPROCS 2, and requires identical results — FreeBlockFraction
// included, which depends on exactly which blocks every tail lands in.
func TestReplayDeterministic(t *testing.T) {
	ops := a5PopulationHistory(t)
	geo := sweepGeometries([]int64{8 << 10})[0] // 8 KB blocks, 1 KB fragments
	want, err := replayPop(ops, geo)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := wasteSweepOps(ops, sweepBlockSizes)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got := make([]*ReplayResult, 8)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = replayPop(ops, geo)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("GOMAXPROCS=%d replay %d: %+v, want %+v", procs, i, got[i], want)
			}
		}
		rows, err := wasteSweepOps(ops, sweepBlockSizes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("GOMAXPROCS=%d sweep rows %+v, want %+v", procs, rows, wantRows)
		}
	}
}

// TestReallocInPlace pins what an in-place resize keeps: an unchanged
// tail, and the full blocks that survive a grow or a shrink.
func TestReallocInPlace(t *testing.T) {
	d := mustDisk(t, Geometry{BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 64})
	f, err := d.Alloc(3*4096 + 512)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]int64(nil), f.blocks...)
	tail := f.tail
	// A size change within the same fragment count moves nothing.
	if f, err = d.Realloc(f, 3*4096+100); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.blocks, kept) || f.tail != tail {
		t.Errorf("footprint moved to %v + %+v, want %v + %+v", f.blocks, f.tail, kept, tail)
	}
	// Growing by whole blocks keeps the blocks the file had.
	if f, err = d.Realloc(f, 5*4096); err != nil {
		t.Fatal(err)
	}
	if len(f.blocks) != 5 || !reflect.DeepEqual(f.blocks[:3], kept) || f.hasTail {
		t.Errorf("grown footprint %v (tail %v), want the prefix %v kept and no tail", f.blocks, f.hasTail, kept)
	}
	// Shrinking drops blocks from the end.
	if f, err = d.Realloc(f, 2*4096+10); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.blocks, kept[:2]) || f.tail.count != 1 {
		t.Errorf("shrunk footprint %v + %d frags, want %v + 1", f.blocks, f.tail.count, kept[:2])
	}
	if u := d.Usage(); u.DataBytes != 2*4096+10 || u.AllocatedBytes != 2*4096+512 {
		t.Errorf("accounting after resizes: %+v", u)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A grow that runs out of space partway releases the whole file, as
// freeing it and failing a fresh allocation would.
func TestReallocNoSpaceMidGrow(t *testing.T) {
	d := mustDisk(t, Geometry{BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 4})
	a, err := d.Alloc(3 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(2*4096 + 700); err != nil {
		t.Fatal(err)
	}
	// Three blocks are free: a needs four more.
	if got, err := d.Realloc(a, 7*4096); !errors.Is(err, ErrNoSpace) || got != nil {
		t.Fatalf("Realloc = %v, %v; want nil, ErrNoSpace", got, err)
	}
	if a.Size() != 0 || len(a.blocks) != 0 || a.hasTail {
		t.Errorf("failed file still holds %d bytes, %d blocks, tail %v", a.Size(), len(a.blocks), a.hasTail)
	}
	if u := d.Usage(); u.DataBytes != 2*4096+700 || u.AllocatedBytes != 2*4096+1024 {
		t.Errorf("accounting after the failed grow: %+v", u)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	d.Free(a) // a no-op on the emptied file
	if _, err := d.Alloc(5 * 4096); err != nil {
		t.Errorf("the released space is not reusable: %v", err)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkFiles verifies the live files against the disk: footprints match
// sizes, no fragment belongs to two files, and the byte accounting sums.
func checkFiles(d *Disk, live []*File) error {
	owned := make(map[int64]int)
	var data, frags int64
	for i, f := range live {
		wantFull := f.size / d.geo.BlockSize
		wantTail := (f.size%d.geo.BlockSize + d.geo.FragSize - 1) / d.geo.FragSize
		if int64(len(f.blocks)) != wantFull || f.tail.count != wantTail || f.hasTail != (wantTail > 0) {
			return fmt.Errorf("file %d: %d bytes in %d blocks + %d frags", i, f.size, len(f.blocks), f.tail.count)
		}
		claim := func(start, n int64) error {
			for fr := start; fr < start+n; fr++ {
				if j, ok := owned[fr]; ok {
					return fmt.Errorf("fragment %d owned by files %d and %d", fr, j, i)
				}
				if d.isFree(fr) {
					return fmt.Errorf("file %d owns free fragment %d", i, fr)
				}
				owned[fr] = i
			}
			return nil
		}
		for _, b := range f.blocks {
			if err := claim(b*d.fragsPer, d.fragsPer); err != nil {
				return err
			}
		}
		if err := claim(f.tail.start, f.tail.count); err != nil {
			return err
		}
		data += f.size
		frags += d.frags(f)
	}
	if u := d.Usage(); u.DataBytes != data || u.AllocatedBytes != frags*d.geo.FragSize {
		return fmt.Errorf("disk accounts %d data / %d allocated bytes, files hold %d / %d",
			u.DataBytes, u.AllocatedBytes, data, frags*d.geo.FragSize)
	}
	return nil
}

// TestResizeRandomOps drives random allocs, in-place resizes and frees
// against small disks — small enough that grows regularly run out of
// space partway — and checks every invariant after every operation.
func TestResizeRandomOps(t *testing.T) {
	geos := []Geometry{
		{BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 8},
		{BlockSize: 4096, FragSize: 1024, Groups: 3, BlocksPerGroup: 5},
		{BlockSize: 1024, FragSize: 512, Groups: 1, BlocksPerGroup: 70},
		{BlockSize: 4096, FragSize: 4096, Groups: 2, BlocksPerGroup: 6},
	}
	var midGrowFailures int
	for gi, geo := range geos {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := mustDisk(t, geo)
			var live []*File
			for step := 0; step < 300; step++ {
				size := rng.Int63n(geo.Capacity() / 3)
				if rng.Intn(4) == 0 {
					size %= geo.BlockSize // tail-only files
				}
				op := rng.Intn(3)
				if len(live) == 0 {
					op = 0
				}
				var what string
				switch op {
				case 0:
					what = fmt.Sprintf("Alloc(%d)", size)
					if f, err := d.Alloc(size); err == nil {
						live = append(live, f)
					} else if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("%s: %v", what, err)
					}
				case 1:
					i := rng.Intn(len(live))
					f := live[i]
					what = fmt.Sprintf("Realloc(%d -> %d)", f.size, size)
					held := len(f.blocks)
					got, err := d.Realloc(f, size)
					switch {
					case err == nil && got != f:
						t.Fatalf("%s moved the file", what)
					case errors.Is(err, ErrNoSpace):
						if f.size != 0 || len(f.blocks) != 0 || f.hasTail {
							t.Fatalf("%s failed but the file kept its space", what)
						}
						if held > 0 && int64(held) < size/geo.BlockSize {
							midGrowFailures++
						}
						live = append(live[:i], live[i+1:]...)
					case err != nil:
						t.Fatalf("%s: %v", what, err)
					}
				case 2:
					i := rng.Intn(len(live))
					what = fmt.Sprintf("Free(%d)", live[i].size)
					d.Free(live[i])
					live = append(live[:i], live[i+1:]...)
				}
				if err := d.checkInvariants(); err != nil {
					t.Fatalf("geometry %d seed %d step %d %s: %v", gi, seed, step, what, err)
				}
				if err := checkFiles(d, live); err != nil {
					t.Fatalf("geometry %d seed %d step %d %s: %v", gi, seed, step, what, err)
				}
			}
		}
	}
	if midGrowFailures == 0 {
		t.Errorf("no grow ran out of space partway; the failure path went unexercised")
	}
}
