package cachesim

import (
	"errors"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

func sweepTape(t *testing.T) *xfer.Tape {
	b := newTB()
	for i := 0; i < 100; i++ {
		f := trace.FileID(i%10 + 1)
		b.write(f, int64(i*137%20000+1))
		b.read(f, int64(i*137%20000+1))
		if i%7 == 0 {
			b.unlink(f)
		}
		b.now += trace.Time(i%5) * trace.Second
	}
	return mustTape(t, b.events)
}

func TestPolicySweepShape(t *testing.T) {
	tape := sweepTape(t)
	sizes := []int64{64 << 10, 1 << 20}
	pols := PaperPolicies()
	res, err := PolicySweepTape(tape, 4096, sizes, pols)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0]) != 4 {
		t.Fatalf("shape = %dx%d", len(res), len(res[0]))
	}
	for i := range sizes {
		for j := range pols {
			if res[i][j] == nil {
				t.Fatalf("nil result at %d,%d", i, j)
			}
			if res[i][j].Config.CacheSize != sizes[i] {
				t.Errorf("result %d,%d has cache %d", i, j, res[i][j].Config.CacheSize)
			}
		}
		// Accesses are policy-invariant.
		for j := 1; j < len(pols); j++ {
			if res[i][j].LogicalAccesses != res[i][0].LogicalAccesses {
				t.Errorf("accesses differ across policies")
			}
		}
	}
}

func TestPolicySweepPropagatesErrors(t *testing.T) {
	tape := sweepTape(t)
	bad := []PolicySpec{{Name: "broken", Write: FlushBack}} // missing interval
	if _, err := PolicySweepTape(tape, 4096, []int64{1 << 20}, bad); err == nil {
		t.Errorf("invalid policy accepted")
	}
	if _, err := PolicySweepTape(tape, 0, []int64{1 << 20}, PaperPolicies()); err == nil {
		t.Errorf("zero block size accepted")
	}
}

func TestBlockSizeSweepShape(t *testing.T) {
	tape := sweepTape(t)
	res, err := BlockSizeSweepTape(tape, []int64{4096, 8192}, []int64{128 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses[0] <= res.Accesses[1] {
		t.Errorf("smaller blocks should produce more accesses: %v", res.Accesses)
	}
	for i := range res.BlockSizes {
		if res.Results[i][0].DiskIOs() < res.Results[i][1].DiskIOs() {
			t.Errorf("bigger cache should not cost more I/Os")
		}
	}
	if _, err := BlockSizeSweepTape(tape, []int64{0}, []int64{1 << 20}); err == nil {
		t.Errorf("zero block size accepted")
	}
}

func TestPagingSweepShape(t *testing.T) {
	b := newTB()
	b.exec(1, 50000)
	b.read(2, 8192)
	tape := mustTape(t, b.events)
	res, err := PagingSweepTape(tape, 4096, []int64{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res[0][1].LogicalAccesses <= res[0][0].LogicalAccesses {
		t.Errorf("paging mode should add accesses: %d vs %d",
			res[0][1].LogicalAccesses, res[0][0].LogicalAccesses)
	}
	if _, err := PagingSweepTape(tape, 0, []int64{1 << 20}); err == nil {
		t.Errorf("zero block size accepted")
	}
}

func TestReplacementSweepCoversAll(t *testing.T) {
	res, err := ReplacementSweepTape(sweepTape(t), 4096, 128<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("policies covered: %d", len(res))
	}
	for _, rp := range []Replacement{LRU, FIFO, Clock, Random} {
		if res[rp] == nil {
			t.Errorf("%v missing", rp)
		}
	}
	// LRU should not lose to FIFO on a workload with reuse.
	if res[LRU].DiskIOs() > res[FIFO].DiskIOs() {
		t.Logf("note: FIFO beat LRU on this toy trace (%d vs %d)", res[FIFO].DiskIOs(), res[LRU].DiskIOs())
	}
	if _, err := ReplacementSweepTape(sweepTape(t), 0, 1<<20, 1); err == nil {
		t.Errorf("zero block size accepted")
	}
}

func TestFlushIntervalSweepMonotone(t *testing.T) {
	intervals := []trace.Time{trace.Second, 30 * trace.Second, 5 * trace.Minute}
	res, err := FlushIntervalSweepTape(sweepTape(t), 4096, 256<<10, intervals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].DiskWrites > res[i-1].DiskWrites {
			t.Errorf("longer flush interval increased writes: %d then %d",
				res[i-1].DiskWrites, res[i].DiskWrites)
		}
	}
	if _, err := FlushIntervalSweepTape(sweepTape(t), 4096, 1<<20, []trace.Time{0}); err == nil {
		t.Errorf("zero interval accepted")
	}
}

func TestRunParallelErrorAndOrder(t *testing.T) {
	// All indexes run exactly once.
	seen := make([]int, 100)
	err := runParallel(100, func(i int) error {
		seen[i]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	// Errors are surfaced.
	wantErr := errors.New("boom")
	err = runParallel(10, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
	// n = 1 uses the serial path.
	ran := false
	if err := runParallel(1, func(int) error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("serial path failed")
	}
	// n = 0 is a no-op.
	if err := runParallel(0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Errorf("empty parallel failed: %v", err)
	}
}
