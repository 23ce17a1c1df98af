// Quickstart: generate a synthetic 4.2 BSD trace, analyze it, and simulate
// a disk block cache over it — the whole pipeline of the paper in about
// sixty lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

func main() {
	// 1. Generate one simulated hour of the A5 machine (Ucbarpa:
	// program development and document formatting, ~28 users).
	res, err := workload.Generate(workload.Config{
		Profile:  "A5",
		Seed:     42,
		Duration: 1 * trace.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d trace events for %d users\n",
		len(res.Events), res.Profile.Users())

	// 2. Reference-pattern analysis (the paper's Section 5).
	a := analyzer.Analyze(res.Events, analyzer.Options{})
	fmt.Printf("data transferred: %.1f MB (%.0f bytes/sec per active user over 10-minute intervals)\n",
		float64(a.Overall.BytesTransferred)/(1<<20),
		a.Activity.Long.PerUserThroughput.Mean())
	fmt.Printf("whole-file read accesses: %.0f%%   opens under 0.5s: %.0f%%\n",
		100*a.Sequentiality.WholeFileFraction(analyzer.ClassReadOnly),
		100*a.OpenTimes.FractionAtOrBelow(0.5))
	fmt.Printf("new files dead within 3 minutes: %.0f%%\n",
		100*a.Lifetimes.ByFiles.FractionAtOrBelow(180))

	// 3. Cache simulation (the paper's Section 6): a 4-Mbyte LRU cache
	// of 4-kbyte blocks under the delayed-write policy, replayed from
	// the trace's transfer tape.
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cachesim.SimulateTape(tape, cachesim.Config{
		BlockSize: 4096,
		CacheSize: 4 << 20,
		Write:     cachesim.DelayedWrite,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4MB delayed-write cache: miss ratio %.1f%% (%d disk I/Os for %d block accesses)\n",
		100*r.MissRatio(), r.DiskIOs(), r.LogicalAccesses)
	fmt.Printf("dirty blocks that died in cache and never reached disk: %.0f%%\n",
		100*r.NeverWrittenFraction())
}
