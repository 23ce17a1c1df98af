// Command fsreport regenerates every table and figure in the paper's
// evaluation in one run: it generates synthetic traces for the three
// machine profiles (A5, E3, C4), runs the Section-5 reference-pattern
// analysis on all three, and runs the Section-6 cache simulations on A5
// (the paper reports cache results for A5 only; the three traces produce
// nearly indistinguishable results).
//
// The run is built for scale: each machine's trace is generated exactly
// once and teed to every consumer concurrently (trace.Fanout) — the
// reference-pattern analyzer, the transfer-tape builder, the
// fragmentation replay, the merged-server section — each reading it as
// a stream. No trace is ever materialized in memory or spilled to disk,
// so -scale and -shards can push the fleet far past what a
// slice-of-events design could hold; -shards N additionally generates
// each machine's population as N concurrent shards merged into one
// deterministic stream. Every cache simulation replays the A5 transfer
// tape (xfer.Tape), built once during the analyzer's pass and shared by
// all configurations; -only runs only the simulations the requested item
// needs.
//
// Usage:
//
//	fsreport                      # full report, 8-hour traces
//	fsreport -duration 2h         # quicker
//	fsreport -only tableVI        # a single table or figure
//	fsreport -ablations           # include the beyond-the-paper ablations
//	fsreport -scale 16 -shards 8  # a 16x fleet, sharded generation
//	fsreport -cpuprofile cpu.pb.gz   # profile the run
//	fsreport -input volume.csv -format blockcsv  # report on a foreign trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/fault"
	"bsdtrace/internal/ffs"
	"bsdtrace/internal/namei"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/report"
	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// reportConfig carries the report run's knobs.
type reportConfig struct {
	duration  time.Duration
	seed      int64
	only      string
	ablations bool
	dataDir   string
	scale     float64
	shards    int
	lenient   bool
	reg       *obs.Registry // nil or disabled = no instrumentation
}

// reportManifest snapshots a report run's registry into the manifest
// shape the -manifest flag writes and the golden harness diffs.
func reportManifest(cfg reportConfig) *obs.Manifest {
	return cfg.reg.Manifest(obs.RunInfo{
		Command: "fsreport",
		Seed:    cfg.seed,
		Config: map[string]string{
			"duration":  cfg.duration.String(),
			"only":      cfg.only,
			"ablations": fmt.Sprintf("%t", cfg.ablations),
			"scale":     fmt.Sprintf("%g", cfg.scale),
			"shards":    fmt.Sprintf("%d", cfg.shards),
			"lenient":   fmt.Sprintf("%t", cfg.lenient),
		},
	})
}

func main() {
	var (
		duration   = flag.Duration("duration", 8*time.Hour, "simulated time span per trace")
		seed       = flag.Int64("seed", 1, "random seed")
		only       = flag.String("only", "", "render a single item: tableI, tableIII, tableIV, tableV, tableVI, tableVII, intervals, sharing, residency, reliability, metadata, fragmentation, server, diskless, workingset, static, zoo, fig1..fig7")
		ablations  = flag.Bool("ablations", false, "also run the beyond-the-paper ablations (A1, A2, A3, A4)")
		scale      = flag.Float64("scale", 1.0, "user population multiplier per machine")
		shards     = flag.Int("shards", 1, "generate each machine's population as N concurrent shards")
		outPath    = flag.String("o", "", "write the report to a file instead of stdout")
		dataDir    = flag.String("data", "", "also write every table and figure as CSV files into this directory")
		stability  = flag.Int("stability", 0, "instead of the report, run the headline metrics across N seeds and print mean ± sd")
		degrade    = flag.Bool("degrade", false, "instead of the report, run the loss-sensitivity sweep: mangle the A5 trace at increasing loss rates and table the drift of the headline values")
		lenient    = flag.Bool("lenient", false, "repair damaged traces and report what survives instead of failing on partial ingest")
		input      = flag.String("input", "", "instead of the synthetic fleet, report on this foreign trace file (requires -format)")
		format     = flag.String("format", "bsd", "trace format of -input: blockcsv, pageref, strace")
		fit        = flag.Int("fit", 0, "cache-size ladder rungs for the -input Table VI sweep (default 6, fitted to the trace footprint)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		manifest   = flag.String("manifest", "", "write the run manifest (config, stage spans, metrics) to this file")
		progress   = flag.Bool("progress", false, "live per-stage progress line on stderr (TTY only)")
		debugAddr  = flag.String("debug-addr", "", "serve expvar and pprof on this address for live inspection")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fsreport:", err)
			os.Exit(1)
		}
	}

	reg := obs.NewRegistry()
	reg.SetEnabled(*manifest != "" || *progress || *debugAddr != "")
	if *debugAddr != "" {
		addr, derr := obs.ServeDebug(*debugAddr, reg)
		if derr != nil {
			fmt.Fprintln(os.Stderr, "fsreport:", derr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fsreport: debug server on http://%s/debug/vars\n", addr)
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.StartProgress(os.Stderr, reg)
	}

	cfg := reportConfig{
		duration:  *duration,
		seed:      *seed,
		only:      *only,
		ablations: *ablations,
		dataDir:   *dataDir,
		scale:     *scale,
		shards:    *shards,
		lenient:   *lenient,
		reg:       reg,
	}
	var err error
	switch {
	case *input != "":
		err = runForeign(w, *input, *format, *fit)
	case *stability > 0:
		err = runStability(w, *duration, *seed, *stability)
	case *degrade:
		err = runDegrade(w, *duration, *seed)
	default:
		err = run(w, cfg)
	}
	prog.Stop()
	if err == nil && *manifest != "" {
		err = reportManifest(cfg).WriteFile(*manifest)
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "fsreport:", ferr)
			os.Exit(1)
		}
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintln(os.Stderr, "fsreport:", werr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsreport:", err)
		os.Exit(1)
	}
}

// parallel runs jobs 0..n-1 on up to GOMAXPROCS workers and returns the
// first error. Jobs write into index-ordered slots, so parallelism never
// changes any output.
func parallel(n int, job func(i int) error) error {
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

// runStability regenerates the A5 workload with n different seeds on
// parallel workers and reports the spread of the headline metrics: the
// reproduction's shapes are properties of the workload model, not of one
// lucky seed. Each seed's trace streams straight from the generator into
// the analyzer and tape builder — never materialized. Per-seed values
// aggregate in seed order, so the output is identical at any worker count.
func runStability(w io.Writer, duration time.Duration, baseSeed int64, n int) error {
	metrics := []struct {
		name string
		agg  *stats.Welford
	}{
		{name: "whole-file read accesses (%)"},
		{name: "opens under 0.5 s (%)"},
		{name: "179-182 s lifetime spike (% of new files)"},
		{name: "per-user throughput, 10-min (B/s)"},
		{name: "2-MB delayed-write miss ratio (%)"},
		{name: "4-MB delayed-write miss ratio (%)"},
	}
	for i := range metrics {
		metrics[i].agg = &stats.Welford{}
	}
	seedVals := make([][]float64, n)
	err := parallel(n, func(i int) error {
		seed := baseSeed + int64(i)
		s := analyzer.NewStream(analyzer.Options{})
		tb := xfer.NewTapeBuilder()
		if _, err := workload.GenerateStream(workload.Config{
			Profile: "A5", Seed: seed, Duration: trace.Time(duration.Milliseconds()),
		}, func(e trace.Event) error {
			s.Feed(e)
			tb.Add(e)
			return nil
		}); err != nil {
			return err
		}
		a := s.Finish()
		lf := a.Lifetimes.ByFiles
		vals := []float64{
			100 * a.Sequentiality.WholeFileFraction(analyzer.ClassReadOnly),
			100 * a.OpenTimes.FractionAtOrBelow(0.5),
			100 * (lf.FractionAtOrBelow(182) - lf.FractionAtOrBelow(178)),
			a.Activity.Long.PerUserThroughput.Mean(),
		}
		tape, err := tb.Finish()
		if err != nil {
			return fmt.Errorf("cachesim: malformed trace: %v", err)
		}
		rs, err := cachesim.MultiSimulate(tape, []cachesim.Config{
			{BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite},
			{BlockSize: 4096, CacheSize: 4 << 20, Write: cachesim.DelayedWrite},
		})
		if err != nil {
			return err
		}
		for _, r := range rs {
			vals = append(vals, 100*r.MissRatio())
		}
		seedVals[i] = vals
		return nil
	})
	if err != nil {
		return err
	}
	for _, vals := range seedVals {
		for j, v := range vals {
			metrics[j].agg.Add(v)
		}
	}
	t := &report.Table{
		Title:  fmt.Sprintf("Seed stability: headline metrics across %d seeds (%v A5 traces).", n, duration),
		Header: []string{"Metric", "mean ± sd", "min", "max"},
		Note:   "Every metric should be tight around its EXPERIMENTS.md value; a wide spread would mean the reproduction depends on a lucky seed.",
	}
	for _, m := range metrics {
		t.AddRow(m.name, m.agg.String(),
			fmt.Sprintf("%.1f", m.agg.Min()), fmt.Sprintf("%.1f", m.agg.Max()))
	}
	return t.Render(w)
}

// runDegrade is the loss-sensitivity sweep: how much trace damage can
// the headline numbers absorb? The A5 trace is generated once and teed
// to one consumer per sweep rate (trace.Fanout); each consumer reads it
// through the fault-injecting mangler (drop-only — silently discarded
// records, the damage mode a real degraded tracer produces) and the
// self-healing recovery layer, then re-runs the reference-pattern
// analyzer and the four Table VI write-policy simulations. The table
// reports each headline value's drift against the clean baseline, plus
// the repair budget the recovery layer spent getting there. Every
// consumer is drained by its own goroutine, as the tee requires; results
// land in rate-ordered slots, so the output is deterministic.
func runDegrade(w io.Writer, duration time.Duration, seed int64) error {
	rates := []float64{0, 0.0001, 0.001, 0.01, 0.05}
	policies := cachesim.PaperPolicies()

	type degradeRow struct {
		seq    float64 // sequential runs among read-only accesses (%)
		whole  float64 // whole-file read accesses (%)
		small  float64 // dynamic file sizes: files at or below 10 kbytes (%)
		miss   []float64
		mangle fault.MangleStats
		repair trace.RepairStats
	}
	rows := make([]*degradeRow, len(rates))
	errs := make([]error, len(rates))
	degrade := func(i int, src trace.Source) error {
		var mg *fault.TraceMangler
		if rates[i] > 0 {
			// Per-rate seed: each rate damages different records, so the
			// sweep measures the loss rate, not one unlucky pattern.
			mg = fault.NewTraceMangler(src, fault.MangleConfig{
				Seed: seed + int64(i), Drop: rates[i],
			})
			src = mg
		}
		rec := trace.NewRecoverSource(src)
		s := analyzer.NewStream(analyzer.Options{})
		tb := xfer.NewTapeBuilder()
		for {
			e, err := rec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			s.Feed(e)
			tb.Add(e)
		}
		a := s.Finish()
		tape, err := tb.Finish()
		if err != nil {
			return fmt.Errorf("rate %g: malformed trace after repair: %v", rates[i], err)
		}
		cfgs := make([]cachesim.Config, len(policies))
		for j, p := range policies {
			cfgs[j] = cachesim.Config{
				BlockSize: 4096, CacheSize: 2 << 20,
				Write: p.Write, FlushInterval: p.Interval,
			}
		}
		rs, err := cachesim.MultiSimulate(tape, cfgs)
		if err != nil {
			return err
		}
		row := &degradeRow{
			seq:    100 * a.Sequentiality.SequentialFraction(analyzer.ClassReadOnly),
			whole:  100 * a.Sequentiality.WholeFileFraction(analyzer.ClassReadOnly),
			small:  100 * a.FileSizesByFiles.FractionAtOrBelow(10*1024),
			repair: rec.Stats(),
		}
		if mg != nil {
			row.mangle = mg.Stats()
		}
		for _, r := range rs {
			row.miss = append(row.miss, 100*r.MissRatio())
		}
		rows[i] = row
		return nil
	}

	tee := trace.NewFanout(len(rates))
	var wg sync.WaitGroup
	for i := range rates {
		sub := tee.Source(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Cancel()
			errs[i] = degrade(i, sub)
		}()
	}
	_, err := workload.GenerateStream(workload.Config{
		Profile: "A5", Seed: seed, Duration: trace.Time(duration.Milliseconds()),
	}, tee.Write)
	if err == trace.ErrFanoutDone {
		// Every consumer stopped early and holds its own error.
		err = nil
	}
	tee.Close(err)
	wg.Wait()
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	rateLabel := func(rate float64) string {
		if rate == 0 {
			return "clean"
		}
		return fmt.Sprintf("%g%%", 100*rate)
	}
	base := rows[0]
	drift := func(v, b float64) string {
		if v == b {
			return fmt.Sprintf("%.2f", v)
		}
		return fmt.Sprintf("%.2f (%+.2f)", v, v-b)
	}

	t := &report.Table{
		Title: fmt.Sprintf("Loss sensitivity: headline values vs. record-loss rate (%v A5 trace, repaired ingest).", duration),
		Header: []string{"Loss rate", "Seq. runs RO (%)", "Whole-file RO (%)", "Files <=10KB (%)",
			policies[0].Name + " miss (%)", policies[1].Name + " miss (%)",
			policies[2].Name + " miss (%)", policies[3].Name + " miss (%)"},
		Note: "Each row drops the given fraction of trace records uniformly at random, " +
			"repairs the stream through the self-healing recovery layer, and re-runs the " +
			"analysis and the four Table VI write policies (2-Mbyte cache, 4-kbyte blocks). " +
			"Parenthesized deltas are drift against the clean baseline.",
	}
	for i, rate := range rates {
		row := rows[i]
		cells := []string{rateLabel(rate),
			drift(row.seq, base.seq), drift(row.whole, base.whole), drift(row.small, base.small)}
		for j := range policies {
			cells = append(cells, drift(row.miss[j], base.miss[j]))
		}
		t.AddRow(cells...)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	bt := &report.Table{
		Title:  "Repair budget per loss rate: what the recovery layer spent.",
		Header: []string{"Loss rate", "Events in", "Lost by fault", "Dropped", "Synthesized", "Rewritten", "Est. bytes lost"},
		Note: "\"Lost by fault\" is records the mangler silently discarded; the remaining " +
			"columns are the recovery layer's repairs — orphaned handles dropped, missing " +
			"closes synthesized, fields clamped — that keep the damaged stream valid.",
	}
	for i, rate := range rates {
		row := rows[i]
		bt.AddRow(rateLabel(rate),
			report.Count(row.repair.Events),
			report.Count(row.mangle.Dropped),
			report.Count(row.repair.Dropped),
			report.Count(row.repair.Synthesized),
			report.Count(row.repair.Rewritten),
			report.Size(row.repair.EstBytesLost))
	}
	return bt.Render(w)
}

func run(w io.Writer, cfg reportConfig) error {
	want := func(name string) bool {
		return cfg.only == "" || strings.EqualFold(cfg.only, name)
	}
	if cfg.scale <= 0 {
		cfg.scale = 1
	}

	fmt.Fprintf(w, "Reproduction of \"A Trace-Driven Analysis of the UNIX 4.2 BSD File System\" (SOSP 1985)\n")
	fmt.Fprintf(w, "Synthetic traces: %v per machine, seed %d (see DESIGN.md for the substitution rationale)\n", cfg.duration, cfg.seed)
	if cfg.scale != 1 || cfg.shards > 1 {
		fmt.Fprintf(w, "Scaled fleet: %gx user population, %d generation shards per machine\n", cfg.scale, cfg.shards)
	}
	fmt.Fprintln(w)

	names := []string{"A5", "E3", "C4"}

	// Which Section-6 sweeps do the requested items need? (-data exports
	// them all.)
	cacheSizes := cachesim.PaperCacheSizes()
	policies := cachesim.PaperPolicies()
	needPolicy := cfg.dataDir != "" || want("tableI") || want("tableVI") || want("fig5") ||
		want("residency") || want("metadata")
	needBlock := cfg.dataDir != "" || want("tableI") || want("tableVII") || want("fig6")
	needPaging := cfg.dataDir != "" || want("fig7")
	// The zoo comparison renders only on explicit request: it multiplies
	// every figure by nine policies, which the default report (and the
	// golden file) does not carry.
	needZoo := strings.EqualFold(cfg.only, "zoo")
	needTape := needPolicy || needBlock || needPaging || needZoo ||
		want("workingset") || want("reliability") || cfg.ablations
	needMachineTapes := want("server") || want("diskless")
	needFrag := want("fragmentation")
	needMerge := want("server")

	// Generate each machine's trace exactly once and tee it to every
	// consumer concurrently: the reference-pattern analyzer (every
	// machine, with A5's pass also building the shared transfer tape),
	// the per-machine tape builders, the fragmentation population scan,
	// and the merged-server leg all read the same generation through
	// bounded channels of shared event batches (trace.Fanout). Nothing
	// is spilled to disk and nothing is ever generated twice; a fanout's
	// bounded channels throttle the generator to its slowest consumer,
	// so memory stays O(consumers * batch) no matter the scale. Every
	// subscriber is drained by its own goroutine — that, not worker
	// count, is what makes the tee deadlock-free.
	statics := make([][]int64, len(names))
	analyses := make([]*analyzer.Analysis, len(names))
	var a5Tape *xfer.Tape
	var machineTapes []*xfer.Tape
	var mergedTape *xfer.Tape
	var fragRows []ffs.WasteSweepRow
	if needMachineTapes {
		machineTapes = make([]*xfer.Tape, len(names))
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	spawn := func(job func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := job(); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	// wrap applies the lenient repair layer when asked. Generated
	// streams are pristine, so the repair pass is a provable no-op; it
	// runs anyway so a -lenient report exercises exactly the ingestion
	// stack a damaged-trace rerun would use.
	wrap := func(src trace.Source) trace.Source {
		if cfg.lenient {
			return trace.NewLenientSource(src)
		}
		return src
	}

	mergeLegs := make([]trace.Source, len(names))
	for i := range names {
		subs := 1 // the analyzer
		if needMachineTapes && (i > 0 || !needTape) {
			subs++
		}
		if needFrag && i == 0 {
			subs++
		}
		if needMerge {
			subs++
		}
		f := trace.NewFanout(subs)
		next := 0
		takeSub := func() *trace.FanoutSub { s := f.Source(next); next++; return s }

		// The generator: one machine's full simulation, pushed into the
		// tee. All machines generate concurrently regardless of
		// GOMAXPROCS — consumers block on channels, not on workers.
		i := i
		spawn(func() error {
			sink := workload.Sink(f.Write)
			var sp *obs.Span
			if cfg.reg.Enabled() {
				sp = cfg.reg.StartSpan("generate/" + names[i])
				sink = func(e trace.Event) error { sp.AddOut(1); return f.Write(e) }
			}
			res, err := workload.GenerateStream(workload.Config{
				Profile:   names[i],
				Seed:      cfg.seed,
				Duration:  trace.Time(cfg.duration.Milliseconds()),
				UserScale: cfg.scale,
				Shards:    cfg.shards,
			}, sink)
			if err == trace.ErrFanoutDone {
				// Every consumer stopped early (each has already
				// reported its own error); an abandoned generation is
				// not itself a failure.
				err = nil
			}
			f.Close(err)
			if sp != nil {
				sp.End()
			}
			if err != nil {
				return err
			}
			statics[i] = res.StaticSizes
			if cfg.reg.Enabled() {
				cfg.reg.Counter("static." + names[i] + ".files").Set(int64(len(res.StaticSizes)))
			}
			workload.PublishStats(cfg.reg, "kernel."+names[i], res.KernelStats)
			return nil
		})

		// The analyzer consumer; A5's builds the shared tape in the
		// same pass.
		analyzeSub := takeSub()
		spawn(func() error {
			defer analyzeSub.Cancel()
			src := cfg.reg.Instrument("analyze/"+names[i], wrap(analyzeSub))
			s := analyzer.NewStream(analyzer.Options{})
			var tb *xfer.TapeBuilder
			if i == 0 && needTape {
				tb = xfer.NewTapeBuilder()
			}
			buf := trace.GetBatch()
			defer trace.PutBatch(buf)
			for {
				n, err := trace.ReadBatch(src, buf)
				if n == 0 {
					if err == io.EOF {
						break
					}
					return err
				}
				for _, e := range buf[:n] {
					s.Feed(e)
					if tb != nil {
						tb.Add(e)
					}
				}
			}
			analyses[i] = s.Finish()
			if tb != nil {
				var err error
				if a5Tape, err = tb.Finish(); err != nil {
					return fmt.Errorf("cachesim: malformed trace: %v", err)
				}
				a5Tape.PublishMetrics(cfg.reg, "tape.A5")
			}
			return nil
		})

		// The standalone tape consumer, for machines whose analyzer pass
		// does not already build one.
		if needMachineTapes && (i > 0 || !needTape) {
			tapeSub := takeSub()
			spawn(func() error {
				defer tapeSub.Cancel()
				t, err := xfer.BuildTape(wrap(tapeSub))
				if err != nil {
					return fmt.Errorf("cachesim: malformed trace: %v", err)
				}
				machineTapes[i] = t
				return nil
			})
		}

		// The fragmentation consumer extracts A5's file-population
		// history during the pass and replays it against each disk
		// geometry after its stream ends.
		if needFrag && i == 0 {
			fragSub := takeSub()
			spawn(func() error {
				defer fragSub.Cancel()
				rows, err := ffs.WasteSweepSource(wrap(fragSub),
					[]int64{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10})
				if err != nil {
					return err
				}
				fragRows = rows
				return nil
			})
		}

		if needMerge {
			mergeLegs[i] = takeSub()
		}
	}

	// The merged-server consumer: a k-way merge over one leg of each
	// machine's tee, feeding the server tape builder — the same merge a
	// set of on-disk machine traces would get, without the disks.
	if needMerge {
		spawn(func() error {
			for _, leg := range mergeLegs {
				defer leg.(*trace.FanoutSub).Cancel()
			}
			merged := cfg.reg.Instrument("server-merge", wrap(trace.NewMergeSource(mergeLegs...)))
			t, err := xfer.BuildTape(merged)
			if err != nil {
				return fmt.Errorf("cachesim: malformed trace: %v", err)
			}
			mergedTape = t
			return nil
		})
	}

	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if needMachineTapes && needTape {
		machineTapes[0] = a5Tape
	}
	a5Static := statics[0]
	tr := report.Traces{Names: names, Analyses: analyses}
	var err error

	var policy [][]*cachesim.Result
	var block *cachesim.BlockSizeSweepResult
	var paging [][2]*cachesim.Result
	if needPolicy {
		if policy, err = cachesim.PolicySweepTape(a5Tape, 4096, cacheSizes, policies); err != nil {
			return err
		}
		for _, row := range policy {
			cachesim.PublishResults(cfg.reg, "sim", row...)
		}
	}
	if needBlock {
		if block, err = cachesim.BlockSizeSweepTape(a5Tape, cachesim.PaperBlockSizes(), cachesim.PaperBlockCacheSizes()); err != nil {
			return err
		}
		for _, row := range block.Results {
			cachesim.PublishResults(cfg.reg, "sim", row...)
		}
	}
	if needPaging {
		if paging, err = cachesim.PagingSweepTape(a5Tape, 4096, cacheSizes); err != nil {
			return err
		}
		for _, pair := range paging {
			cachesim.PublishResults(cfg.reg, "sim", pair[0], pair[1])
		}
	}

	if want("tableI") {
		report.TableI(tr.Analyses[0], policy, block).Render(w)
	}
	if want("tableIII") {
		report.TableIII(tr).Render(w)
	}
	if want("tableIV") {
		report.TableIV(tr).Render(w)
	}
	if want("tableV") {
		report.TableV(tr).Render(w)
	}
	if want("intervals") {
		report.EventIntervalTable(tr).Render(w)
	}
	if want("sharing") {
		report.SharingTable(tr).Render(w)
	}
	if want("fig1") {
		for _, c := range report.Figure1(tr) {
			c.Render(w)
		}
	}
	if want("fig2") {
		for _, c := range report.Figure2(tr) {
			c.Render(w)
		}
	}
	if want("fig3") {
		report.Figure3(tr).Render(w)
	}
	if want("fig4") {
		for _, c := range report.Figure4(tr) {
			c.Render(w)
		}
	}
	if want("tableVI") {
		report.TableVI(cacheSizes, policies, policy).Render(w)
	}
	if want("fig5") {
		report.Figure5(cacheSizes, policies, policy).Render(w)
	}
	if want("tableVII") {
		report.TableVII(block).Render(w)
	}
	if want("fig6") {
		report.Figure6(block).Render(w)
	}
	if want("fig7") {
		report.Figure7(cacheSizes, paging).Render(w)
	}
	if want("residency") {
		// 4-Mbyte delayed-write cache, as in the paper's §6.2 remark.
		report.ResidencyTable(policy[3][3]).Render(w)
	}
	if want("reliability") {
		if err := runReliability(w, a5Tape, cfg.reg); err != nil {
			return err
		}
	}

	if cfg.dataDir != "" {
		var d report.DataSet
		d.AddTable("tableIII", report.TableIII(tr))
		d.AddTable("tableIV", report.TableIV(tr))
		d.AddTable("tableV", report.TableV(tr))
		d.AddTable("tableVI", report.TableVI(cacheSizes, policies, policy))
		d.AddTable("tableVII", report.TableVII(block))
		d.AddTable("sharing", report.SharingTable(tr))
		for i, c := range report.Figure1(tr) {
			d.AddChart(fmt.Sprintf("fig1%c", 'a'+i), c)
		}
		for i, c := range report.Figure2(tr) {
			d.AddChart(fmt.Sprintf("fig2%c", 'a'+i), c)
		}
		d.AddChart("fig3", report.Figure3(tr))
		for i, c := range report.Figure4(tr) {
			d.AddChart(fmt.Sprintf("fig4%c", 'a'+i), c)
		}
		d.AddChart("fig5", report.Figure5(cacheSizes, policies, policy))
		d.AddChart("fig6", report.Figure6(block))
		d.AddChart("fig7", report.Figure7(cacheSizes, paging))
		dataPaths, err := d.WriteDir(cfg.dataDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d CSV files to %s\n\n", len(dataPaths), cfg.dataDir)
	}

	if want("metadata") {
		if err := runMetadata(w, cfg.duration, cfg.seed, cfg.scale, policy[0][1]); err != nil {
			return err
		}
	}
	if want("fragmentation") {
		if err := runFragmentation(w, fragRows); err != nil {
			return err
		}
	}

	// The server and diskless sections replay all three machines off the
	// tapes the fan-out pass already built (A5's is the sweep tape).
	if want("server") {
		if err := runServer(w, names, machineTapes, mergedTape, cfg.reg); err != nil {
			return err
		}
	}
	if want("diskless") {
		if err := runDiskless(w, cfg.duration, machineTapes); err != nil {
			return err
		}
	}
	if want("workingset") {
		if err := runWorkingSet(w, a5Tape); err != nil {
			return err
		}
	}
	if needZoo {
		if err := runZoo(w, a5Tape, cfg.seed); err != nil {
			return err
		}
	}
	if want("static") {
		if err := runStatic(w, a5Static, tr.Analyses[0]); err != nil {
			return err
		}
	}

	if cfg.ablations {
		if err := runAblations(w, a5Tape); err != nil {
			return err
		}
	}
	return nil
}

// runMetadata regenerates the A5 workload with the namei metadata
// simulator attached and sets metadata disk I/O against the data-block
// I/O of the UNIX-sized cache — the paper's concluding estimate that
// "more than half of all disk block references could come from these
// other accesses" (i-nodes, directories, and paging, which Figure 7
// covers separately). The three cache scales regenerate on parallel
// workers (each run drives its own simulator); the events themselves are
// discarded as they are generated — only the simulator's counters matter.
func runMetadata(w io.Writer, duration time.Duration, seed int64, scale float64, unixCache *cachesim.Result) error {
	t := &report.Table{
		Title:  "Metadata I/O: name lookup, i-nodes, and directories (paper §3.2 and conclusion).",
		Header: []string{"Name cache", "Name hit ratio", "Inode hit ratio", "Meta disk I/Os", "Meta share of all disk I/O"},
		Note: "Each row regenerates the A5 workload with the 4.2 BSD-style name, i-node, " +
			"and directory caches simulated at a different scale; the share column compares " +
			"against the data-block I/Os of the 390-kbyte UNIX cache with 30-second flushes. " +
			"Leffler et al. measured an 85% directory cache hit ratio; the paper estimates " +
			"metadata plus paging could exceed half of all disk block references.",
	}
	scales := []int{40, 120, 400}
	sims := make([]*namei.Simulator, len(scales))
	if err := parallel(len(scales), func(i int) error {
		sim := namei.New(namei.Config{
			NameEntries:  scales[i],
			InodeEntries: scales[i] / 2,
			DirBlocks:    scales[i] / 6,
		})
		// The Meta hook needs the single-kernel path, so this regeneration
		// is never sharded (shards own separate kernels).
		if _, err := workload.GenerateStream(workload.Config{
			Profile: "A5", Seed: seed,
			Duration:  trace.Time(duration.Milliseconds()),
			UserScale: scale,
			Meta:      sim,
		}, nil); err != nil {
			return err
		}
		sims[i] = sim
		return nil
	}); err != nil {
		return err
	}
	for i, entries := range scales {
		sim := sims[i]
		meta := sim.Stats.DiskIOs()
		share := float64(meta) / float64(meta+unixCache.DiskIOs())
		t.AddRow(
			fmt.Sprintf("%d entries", entries),
			report.Pct(sim.Stats.NameHitRatio()),
			report.Pct(sim.Stats.InodeHitRatio()),
			report.Count(meta),
			report.Pct(share),
		)
	}
	return t.Render(w)
}

// runFragmentation quantifies the paper's §6.3 remark: large blocks waste
// disk space on small files, and FFS fragments recover it. The rows were
// computed by the fan-out pass's fragmentation consumer, which extracted
// the file population while the A5 trace was generated.
func runFragmentation(w io.Writer, rows []ffs.WasteSweepRow) error {
	t := &report.Table{
		Title:  "Disk space waste vs. block size (paper §6.3), A5 file population.",
		Header: []string{"Block Size", "Waste, whole blocks only", "Waste, with FFS fragments"},
		Note: "Internal fragmentation of the live file population replayed against the " +
			"FFS allocator. \"A scheme like the one in 4.2 BSD, which uses multiple block " +
			"sizes on disk to avoid wasted space for small files, works well in " +
			"conjunction with a fixed-block-size cache.\"",
	}
	for _, row := range rows {
		t.AddRow(report.Size(row.BlockSize), report.Pct(row.NoFragWaste), report.Pct(row.FragWaste))
	}
	return t.Render(w)
}

// runServer answers the paper's motivating design question directly: the
// three machines' traces are merged onto one shared file server, and a
// single server cache is compared against per-machine caches of the same
// total memory. Statistical multiplexing — machines are bursty at
// different moments — is the shared cache's advantage. The merged tape
// was built by the fan-out pass's merge consumer: a k-way merge over one
// live leg of each machine's generation, never materialized.
func runServer(w io.Writer, names []string, tapes []*xfer.Tape, mergedTape *xfer.Tape, reg *obs.Registry) error {
	const blockSize = 4096
	perMachine := int64(2 << 20)

	t := &report.Table{
		Title:  "Shared file server vs. per-machine caches (delayed-write, 4-kbyte blocks).",
		Header: []string{"Configuration", "Total memory", "Disk I/Os", "Miss Ratio"},
		Note: "The three machine traces are merged (with identifier remapping) onto one " +
			"server. The paper's goal was \"designing a shared file system for a network " +
			"of personal workstations\"; pooling the same memory in one server cache " +
			"beats splitting it across machines because bursts interleave.",
	}

	// Split: one private cache per machine, summed; and the merged trace
	// against shared caches of increasing size. All configurations run
	// on parallel workers.
	sharedSizes := []int64{perMachine, perMachine * int64(len(tapes)), 16 << 20}
	private := make([]*cachesim.Result, len(tapes))
	shared := make([]*cachesim.Result, len(sharedSizes))
	jobs := len(tapes) + 1
	if err := parallel(jobs, func(i int) error {
		if i < len(tapes) {
			r, err := cachesim.SimulateTape(tapes[i], cachesim.Config{
				BlockSize: blockSize, CacheSize: perMachine, Write: cachesim.DelayedWrite,
			})
			if err != nil {
				return err
			}
			private[i] = r
			return nil
		}
		cfgs := make([]cachesim.Config, len(sharedSizes))
		for j, cs := range sharedSizes {
			cfgs[j] = cachesim.Config{BlockSize: blockSize, CacheSize: cs, Write: cachesim.DelayedWrite}
		}
		rs, err := cachesim.MultiSimulate(mergedTape, cfgs)
		if err != nil {
			return err
		}
		copy(shared, rs)
		cachesim.PublishResults(reg, "server.shared", rs...)
		return nil
	}); err != nil {
		return err
	}

	// Private caches share one Config, so their labels would collide;
	// the machine name keys them apart.
	for i, r := range private {
		cachesim.PublishResults(reg, "server.private."+names[i], r)
	}

	var splitIOs, splitAccesses int64
	for i, r := range private {
		splitIOs += r.DiskIOs()
		splitAccesses += r.LogicalAccesses
		t.AddRow(fmt.Sprintf("private cache, %s", names[i]), report.Size(perMachine),
			report.Count(r.DiskIOs()), report.Pct(r.MissRatio()))
	}
	t.AddRow("private caches combined", report.Size(perMachine*int64(len(tapes))),
		report.Count(splitIOs), report.Pct(float64(splitIOs)/float64(splitAccesses)))

	for i, cs := range sharedSizes {
		t.AddRow("shared server cache", report.Size(cs),
			report.Count(shared[i].DiskIOs()), report.Pct(shared[i].MissRatio()))
	}
	return t.Render(w)
}

// runDiskless runs the two-level simulation: diskless workstations with
// local block caches writing through to one file server. It answers the
// paper's two introduction questions at once — how much network bandwidth
// a diskless workstation needs, and what the server's cache does to disk
// traffic.
func runDiskless(w io.Writer, duration time.Duration, tapes []*xfer.Tape) error {
	t := &report.Table{
		Title:  "Diskless workstations: client cache x one file server (4-kbyte blocks, 8-Mbyte delayed-write server).",
		Header: []string{"Client cache", "Client hit ratio", "Network blocks", "Avg network B/s", "Server disk I/Os", "End-to-end miss"},
		Note: "Every machine runs a local write-through cache; misses and writes cross " +
			"the network to the server. Even the smallest client cache keeps average " +
			"network demand orders of magnitude below a 10 Mbit/s Ethernet (~750 KB/s " +
			"usable), the paper's §5.1 conclusion; the server's delayed-write cache " +
			"then removes most residual disk traffic.",
	}
	secs := duration.Seconds()
	clientSizes := []int64{128 << 10, 512 << 10, 1 << 20, 2 << 20}
	results := make([]*cachesim.TwoLevelResult, len(clientSizes))
	if err := parallel(len(clientSizes), func(i int) error {
		r, err := cachesim.TwoLevelSimulateTapes(tapes, cachesim.TwoLevelConfig{
			BlockSize:   4096,
			ClientCache: clientSizes[i],
			ServerCache: 8 << 20,
			Write:       cachesim.DelayedWrite,
		})
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return err
	}
	for i, cc := range clientSizes {
		r := results[i]
		netBps := float64(r.NetworkBlocks) * 4096 / secs
		t.AddRow(report.Size(cc),
			report.Pct(r.ClientHitRatio()),
			report.Count(r.NetworkBlocks),
			fmt.Sprintf("%.0f", netBps),
			report.Count(r.ServerDiskIOs()),
			report.Pct(r.EndToEndMissRatio()))
	}
	return t.Render(w)
}

// runZoo renders the policy-zoo comparison: the Figure 5, 6, and 7
// experiments re-run with one column per replacement policy in the
// simulator's zoo. The lru column of the first table reproduces Table
// VI's delayed-write column cell for cell (the golden tests pin this).
func runZoo(w io.Writer, tape *xfer.Tape, seed int64) error {
	cacheSizes := cachesim.PaperCacheSizes()
	zoo, err := cachesim.ZooSweepTape(tape, 4096, cacheSizes, seed)
	if err != nil {
		return err
	}
	if err := report.ZooTable(cacheSizes, zoo).Render(w); err != nil {
		return err
	}
	const zooCache = 2 << 20
	blocks, err := cachesim.ZooBlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), zooCache, seed)
	if err != nil {
		return err
	}
	if err := report.ZooBlockTable(cachesim.PaperBlockSizes(), zooCache, blocks).Render(w); err != nil {
		return err
	}
	paging, err := cachesim.ZooPagingSweepTape(tape, 4096, cacheSizes, seed)
	if err != nil {
		return err
	}
	return report.ZooPagingTable(cacheSizes, paging).Render(w)
}

// runWorkingSet prints Denning's W(T): the distinct data touched per
// window of each length. It is the mechanistic explanation for Table VI's
// knee — the miss-ratio curve bends where the cache first covers the
// working set of the reuse horizon that matters.
func runWorkingSet(w io.Writer, tape *xfer.Tape) error {
	windows := []trace.Time{
		10 * trace.Second, trace.Minute, 10 * trace.Minute, trace.Hour,
	}
	ws, err := cachesim.WorkingSetTape(tape, 4096, windows)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:  "Working set W(T): distinct data touched per window (4-kbyte blocks, trace A5).",
		Header: []string{"Window", "Mean blocks", "Mean data", "Peak blocks", "Peak data"},
		Note: "Denning's working-set curve. Compare the 10-minute row against Table VI: " +
			"the miss-ratio knee sits where the cache size first covers the working set " +
			"of the trace's dominant reuse horizon.",
	}
	for _, p := range ws {
		t.AddRow(p.Window.String(),
			fmt.Sprintf("%.0f", p.MeanBlocks),
			report.Size(int64(p.MeanBytes)),
			report.Count(p.MaxBlocks),
			report.Size(p.MaxBytes))
	}
	return t.Render(w)
}

// runStatic compares the static file-size distribution (a disk scan of
// the live population at the end of the trace, Satyanarayanan's method)
// against the dynamic distribution of accesses (the paper's Figure 2).
// The paper notes the two are "roughly comparable" — about half the files
// under a few kilobytes either way — because small files dominate both
// the disk and the access stream.
func runStatic(w io.Writer, staticSizes []int64, a *analyzer.Analysis) error {
	h := stats.NewLogHistogram(64, 1.3, 60)
	for _, sz := range staticSizes {
		h.Add(float64(sz), 1)
	}
	static := h.CDF()
	t := &report.Table{
		Title:  "Static disk scan vs. dynamic accesses: fraction of files at or below each size (A5).",
		Header: []string{"Size", "Static scan (live files)", "Dynamic (accesses, Fig 2a)"},
		Note: "The static column scans the simulated disk at end of trace, the method " +
			"Satyanarayanan used; the dynamic column weights by accesses, the paper's " +
			"method. The paper calls the two roughly comparable, with the dynamic " +
			"distribution skewed further toward small files (hot files are small).",
	}
	for _, kb := range []float64{1, 4, 10, 100, 1024} {
		t.AddRow(report.Size(int64(kb*1024)),
			report.Pct(static.FractionAtOrBelow(kb*1024)),
			report.Pct(a.FileSizesByFiles.FractionAtOrBelow(kb*1024)))
	}
	t.AddRow("files scanned", report.Count(int64(len(staticSizes))), "")
	return t.Render(w)
}

// runReliability prices each Table VI write policy in the currency the
// paper argues about but never measures: the data a crash destroys.
// Crash points are sampled across the trace in a single replay per
// policy (internal/fault), off the same shared tape as every other sweep.
func runReliability(w io.Writer, tape *xfer.Tape, reg *obs.Registry) error {
	const (
		cacheSize = 2 << 20
		blockSize = 4096
		nPoints   = 64
	)
	policies := cachesim.PaperPolicies()
	points := fault.Points(tape, nPoints)
	reps, err := fault.PolicySweepTape(tape, blockSize, cacheSize, policies, points)
	if err != nil {
		return err
	}
	fault.PublishReports(reg, "crash", reps)
	return report.Reliability(policies, reps, cacheSize, blockSize, len(points)).Render(w)
}

func runAblations(w io.Writer, tape *xfer.Tape) error {
	// A1: replacement policy.
	rep, err := cachesim.ReplacementSweepTape(tape, 4096, 2<<20, 1)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:  "Ablation A1. Replacement policy (2-Mbyte delayed-write cache, 4-kbyte blocks).",
		Header: []string{"Policy", "Disk I/Os", "Miss Ratio"},
		Note:   "The paper fixes LRU without comparison; this quantifies the choice.",
	}
	for _, rp := range []cachesim.Replacement{cachesim.LRU, cachesim.Clock, cachesim.FIFO, cachesim.Random} {
		r := rep[rp]
		t.AddRow(rp.String(), report.Count(r.DiskIOs()), report.Pct(r.MissRatio()))
	}
	t.Render(w)

	// A2: flush interval continuum.
	intervals := []trace.Time{
		1 * trace.Second, 5 * trace.Second, 30 * trace.Second,
		trace.Minute, 5 * trace.Minute, 15 * trace.Minute, trace.Hour,
	}
	fl, err := cachesim.FlushIntervalSweepTape(tape, 4096, 2<<20, intervals)
	if err != nil {
		return err
	}
	t = &report.Table{
		Title:  "Ablation A2. Flush-back interval (2-Mbyte cache, 4-kbyte blocks).",
		Header: []string{"Interval", "Disk Writes", "Miss Ratio"},
		Note:   "Bridges the paper's two flush points toward its write-through and delayed-write limits.",
	}
	for i, iv := range intervals {
		t.AddRow(iv.String(), report.Count(fl[i].DiskWrites), report.Pct(fl[i].MissRatio()))
	}
	t.Render(w)

	// A3: billing time sensitivity. The cache replays accesses in event
	// order either way, so billing only matters where wall-clock time
	// does: under a flush-back policy, whose periodic scans may catch or
	// miss a write depending on when it is billed.
	t = &report.Table{
		Title:  "Ablation A3. Transfer billing time (2-Mbyte cache, 30-second flush-back).",
		Header: []string{"Billing", "Disk I/Os", "Miss Ratio"},
		Note: "The no-read-write tracer only bounds transfer times; the paper bills " +
			"each run at the event that ends it. Billing at the event that starts it " +
			"bounds the error from the other side.",
	}
	for _, bill := range []struct {
		name  string
		start bool
	}{{"at run end (paper)", false}, {"at run start", true}} {
		r, err := cachesim.SimulateTape(tape, cachesim.Config{
			BlockSize: 4096, CacheSize: 2 << 20,
			Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second,
			BillAtStart: bill.start,
		})
		if err != nil {
			return err
		}
		t.AddRow(bill.name, report.Count(r.DiskIOs()), report.Pct(r.MissRatio()))
	}
	t.Render(w)

	// A4: purge-on-death.
	t = &report.Table{
		Title:  "Ablation A4. Purging dead blocks (2-Mbyte delayed-write cache).",
		Header: []string{"Variant", "Disk Writes", "Miss Ratio"},
		Note: "Without purging, blocks of deleted and overwritten files are written " +
			"back at eviction: this isolates how much of delayed-write's win is " +
			"data dying before ejection.",
	}
	for _, v := range []struct {
		name    string
		noPurge bool
	}{{"purge on unlink/overwrite (paper)", false}, {"no purge", true}} {
		r, err := cachesim.SimulateTape(tape, cachesim.Config{
			BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite,
			NoPurge: v.noPurge,
		})
		if err != nil {
			return err
		}
		t.AddRow(v.name, report.Count(r.DiskWrites), report.Pct(r.MissRatio()))
	}
	return t.Render(w)
}
