package ffs

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

func mustDisk(t *testing.T, geo Geometry) *Disk {
	t.Helper()
	d, err := NewDisk(geo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var smallGeo = Geometry{BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 16}

func TestGeometryValidate(t *testing.T) {
	cases := map[string]Geometry{
		"zeroBlock":    {FragSize: 512, Groups: 1, BlocksPerGroup: 1},
		"zeroFrag":     {BlockSize: 4096, Groups: 1, BlocksPerGroup: 1},
		"notMultiple":  {BlockSize: 4096, FragSize: 1000, Groups: 1, BlocksPerGroup: 1},
		"tooManyFrags": {BlockSize: 8192, FragSize: 512, Groups: 1, BlocksPerGroup: 1},
		"noGroups":     {BlockSize: 4096, FragSize: 512, BlocksPerGroup: 1},
	}
	for name, geo := range cases {
		if err := geo.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := smallGeo.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if got := smallGeo.Capacity(); got != 2*16*4096 {
		t.Errorf("Capacity = %d", got)
	}
}

func TestAllocAccounting(t *testing.T) {
	d := mustDisk(t, smallGeo)
	// 5000 bytes = 1 full block + 2 fragments (5000-4096=904 -> 2x512).
	f, err := d.Alloc(5000)
	if err != nil {
		t.Fatal(err)
	}
	full, tail := f.Blocks()
	if full != 1 || tail != 2 {
		t.Errorf("footprint = %d blocks + %d frags, want 1+2", full, tail)
	}
	u := d.Usage()
	if u.DataBytes != 5000 {
		t.Errorf("DataBytes = %d", u.DataBytes)
	}
	if u.AllocatedBytes != 4096+1024 {
		t.Errorf("AllocatedBytes = %d, want 5120", u.AllocatedBytes)
	}
	wantWaste := float64(5120-5000) / 5120
	if u.WasteFraction != wantWaste {
		t.Errorf("WasteFraction = %v, want %v", u.WasteFraction, wantWaste)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	d.Free(f)
	u = d.Usage()
	if u.DataBytes != 0 || u.AllocatedBytes != 0 || u.FreeBytes != smallGeo.Capacity() {
		t.Errorf("after free: %+v", u)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeFile(t *testing.T) {
	d := mustDisk(t, smallGeo)
	f, err := d.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if full, tail := f.Blocks(); full != 0 || tail != 0 {
		t.Errorf("zero-size footprint: %d+%d", full, tail)
	}
	d.Free(f)
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSize(t *testing.T) {
	d := mustDisk(t, smallGeo)
	if _, err := d.Alloc(-1); err == nil {
		t.Errorf("negative size accepted")
	}
}

func TestTailsShareBlocks(t *testing.T) {
	d := mustDisk(t, smallGeo)
	// Four 512-byte files should pack into one block's fragments.
	for i := 0; i < 4; i++ {
		if _, err := d.Alloc(512); err != nil {
			t.Fatal(err)
		}
	}
	u := d.Usage()
	if u.AllocatedBytes != 4*512 {
		t.Errorf("AllocatedBytes = %d, want 2048", u.AllocatedBytes)
	}
	// All four tails share one block, so only one block is partially
	// used: free fragments outside it all form whole blocks.
	freeBlocks := (smallGeo.Capacity() - 4096) / 4096 * 4096
	wantFrac := float64(freeBlocks/512) / float64((smallGeo.Capacity()-2048)/512)
	if u.FreeBlockFraction < wantFrac-1e-9 {
		t.Errorf("FreeBlockFraction = %v, want >= %v (tails should pack)", u.FreeBlockFraction, wantFrac)
	}
}

func TestNoFragmentsMode(t *testing.T) {
	geo := smallGeo
	geo.FragSize = geo.BlockSize
	d := mustDisk(t, geo)
	f, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Usage()
	if u.AllocatedBytes != 4096 {
		t.Errorf("whole-block mode allocated %d for 100 bytes", u.AllocatedBytes)
	}
	d.Free(f)
}

func TestOutOfSpace(t *testing.T) {
	d := mustDisk(t, smallGeo) // 128 KB
	if _, err := d.Alloc(smallGeo.Capacity() + 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize alloc: %v", err)
	}
	// The failed allocation must not leak space.
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Usage().AllocatedBytes != 0 {
		t.Errorf("failed alloc leaked space")
	}
	// Fill the disk exactly, then overflow.
	f, err := d.Alloc(smallGeo.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overfull alloc: %v", err)
	}
	d.Free(f)
	if _, err := d.Alloc(1); err != nil {
		t.Errorf("alloc after free: %v", err)
	}
}

func TestRealloc(t *testing.T) {
	d := mustDisk(t, smallGeo)
	f, err := d.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	f, err = d.Realloc(f, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 10000 || d.Usage().DataBytes != 10000 {
		t.Errorf("realloc grow wrong: %+v", d.Usage())
	}
	f, err = d.Realloc(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Usage().AllocatedBytes != 512 {
		t.Errorf("realloc shrink allocated %d", d.Usage().AllocatedBytes)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Realloc from nil behaves like Alloc.
	if _, err := d.Realloc(nil, 100); err != nil {
		t.Errorf("Realloc(nil): %v", err)
	}
}

func TestDoubleFreeHarmless(t *testing.T) {
	d := mustDisk(t, smallGeo)
	f, err := d.Alloc(3000)
	if err != nil {
		t.Fatal(err)
	}
	d.Free(f)
	d.Free(f) // second free is a no-op
	d.Free(nil)
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Usage().AllocatedBytes != 0 {
		t.Errorf("double free corrupted accounting")
	}
}

// Property: any sequence of random allocs and frees keeps the bitmap,
// counters, and byte accounting consistent, and never double-allocates a
// fragment (checkInvariants recomputes from the bitmap).
func TestAllocFreeInvariants(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := NewDisk(Geometry{BlockSize: 4096, FragSize: 512, Groups: 4, BlocksPerGroup: 32})
		if err != nil {
			return false
		}
		var live []*File
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := int64(op) * 37 % 30000
				file, err := d.Alloc(size)
				if err == nil {
					live = append(live, file)
				} else if !errors.Is(err, ErrNoSpace) {
					return false
				}
			} else {
				i := rng.Intn(len(live))
				d.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return d.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: waste with fragments is never worse than without, and both
// waste fractions shrink as blocks shrink.
func TestFragmentsNeverWorse(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 5, Duration: 30 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := WasteSweepSource(trace.NewSliceSource(res.Events), []int64{4096, 8192, 16384})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.FragWaste > r.NoFragWaste+1e-9 {
			t.Errorf("block %d: fragments made waste worse (%.3f > %.3f)", r.BlockSize, r.FragWaste, r.NoFragWaste)
		}
		if i > 0 && r.NoFragWaste < rows[i-1].NoFragWaste-1e-9 {
			t.Errorf("whole-block waste should grow with block size: %v then %v", rows[i-1].NoFragWaste, r.NoFragWaste)
		}
		if r.DataBytes <= 0 {
			t.Errorf("block %d: no data allocated", r.BlockSize)
		}
	}
	// The paper's point: with fragments, even 16-KB blocks waste little.
	last := rows[len(rows)-1]
	if last.FragWaste > 0.25 {
		t.Errorf("FFS fragments should bound waste: %.3f at 16KB", last.FragWaste)
	}
	if last.NoFragWaste < last.FragWaste+0.1 {
		t.Errorf("whole-block allocation should waste much more at 16KB: %.3f vs %.3f",
			last.NoFragWaste, last.FragWaste)
	}
}

// replay runs a trace's file population against a fresh disk with the
// given geometry.
func replay(events []trace.Event, geo Geometry) (*ReplayResult, error) {
	ops, err := populationOps(trace.NewSliceSource(events))
	if err != nil {
		return nil, err
	}
	return replayPop(ops, geo)
}

func TestReplayTracksPopulation(t *testing.T) {
	events := []trace.Event{
		// Pre-existing file seen at open: allocated at its size.
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, Mode: trace.ReadOnly, Size: 6000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 6000},
		// New file written then deleted.
		{Time: 20, Kind: trace.KindCreate, OpenID: 2, File: 2, Mode: trace.WriteOnly},
		{Time: 30, Kind: trace.KindClose, OpenID: 2, NewPos: 3000},
		{Time: 40, Kind: trace.KindUnlink, File: 2},
		// Truncation shrinks in place.
		{Time: 50, Kind: trace.KindTruncate, File: 1, Size: 1000},
	}
	res, err := replay(events, Geometry{BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveFiles != 1 {
		t.Errorf("LiveFiles = %d, want 1", res.LiveFiles)
	}
	if res.Final.DataBytes != 1000 {
		t.Errorf("final data = %d, want 1000", res.Final.DataBytes)
	}
	if res.PeakData != 9000 {
		t.Errorf("peak data = %d, want 9000", res.PeakData)
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d", res.Failed)
	}
}

func TestReplayRejectsMalformed(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindClose, OpenID: 9, NewPos: 0},
	}
	if _, err := replay(events, smallGeo); err == nil {
		t.Errorf("malformed trace accepted")
	}
}
