package ffs

import (
	"fmt"
	"sync"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

// sweepBlockSizes are the block sizes fsreport's fragmentation table
// replays.
var sweepBlockSizes = []int64{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}

var (
	a5HistoryOnce sync.Once
	a5History     []popOp
	a5HistoryErr  error
)

// a5PopulationHistory is the file-population history of the A5 8-hour
// trace at seed 1 — the history fsreport's golden run replays.
func a5PopulationHistory(tb testing.TB) []popOp {
	tb.Helper()
	a5HistoryOnce.Do(func() {
		res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: 8 * trace.Hour})
		if err != nil {
			a5HistoryErr = err
			return
		}
		a5History, a5HistoryErr = populationOps(trace.NewSliceSource(res.Events))
	})
	if a5HistoryErr != nil {
		tb.Fatal(a5HistoryErr)
	}
	return a5History
}

// BenchmarkWasteSweep replays the A5 8-hour population history against
// one block size's pair of sweep disks (with and without fragments) per
// sub-benchmark: the allocator's cost outside fsreport, with the history
// extraction left out.
func BenchmarkWasteSweep(b *testing.B) {
	ops := a5PopulationHistory(b)
	for _, bs := range sweepBlockSizes {
		b.Run(fmt.Sprintf("%dK", bs>>10), func(b *testing.B) {
			geos := sweepGeometries([]int64{bs})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range geos {
					if _, err := replayPop(ops, g); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(2*len(ops)), "ops/op")
		})
	}
}
