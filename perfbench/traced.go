package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/ffs"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// The traced run replays each workload in-process as a serial sequence
// of calls into the layers' public functions, with the inputs the
// workload's CLIs give them. Each call is one span: its wall time, the
// records it handled, its own work count, and its allocations from
// runtime.MemStats deltas. Spans never overlap, so a layer's busy time is
// the sum of its spans, and the replica's wall time minus all spans is
// the time no span covers.

// replicaLayers lists, per workload, the layers its replica calls.
var replicaLayers = []struct {
	workload string
	layers   []string
}{
	{"report", []string{"workload", "trace", "analyzer", "xfer", "cachesim", "ffs"}},
	{"replay", []string{"trace", "analyzer", "xfer", "cachesim"}},
	{"serve", []string{"workload", "trace", "analyzer"}},
}

// perLayerSpecs are the metrics of a traced run. BENCHMARK.json lists the
// same names and units.
func perLayerSpecs() []metricSpec {
	specs := []metricSpec{
		{"workload.events_per_s", "1/s"},
		{"workload.allocs_per_event", "allocs/event"},
		{"workload.bytes_per_event", "B/event"},
		{"workload.sharded_events_per_s", "1/s"},
		{"trace.decode_events_per_s", "1/s"},
		{"trace.decode_allocs_per_event", "allocs/event"},
		{"trace.encode_events_per_s", "1/s"},
		{"trace.merge_events_per_s", "1/s"},
		{"trace.fanout_events_per_s", "1/s"},
		{"analyzer.events_per_s", "1/s"},
		{"analyzer.allocs_per_event", "allocs/event"},
		{"analyzer.bytes_per_event", "B/event"},
		{"xfer.events_per_s", "1/s"},
		{"xfer.ops_per_event", "ops/event"},
		{"xfer.allocs_per_event", "allocs/event"},
	}
	for _, p := range cachesim.AllReplacements() {
		specs = append(specs,
			metricSpec{"cachesim." + p.String() + ".accesses_per_s", "1/s"},
			metricSpec{"cachesim." + p.String() + ".hit_ratio", "ratio"})
	}
	specs = append(specs, []metricSpec{
		{"cachesim.table_vi_accesses_per_s", "1/s"},
		{"cachesim.twolevel_ops_per_s", "1/s"},
		{"cachesim.hierarchy_ops_per_s", "1/s"},
		{"ffs.events_per_s", "1/s"},
		{"ffs.allocs_per_event", "allocs/event"},
		{"fstraced.chunks_sealed", "count"},
		{"fstraced.bytes_per_record", "B/record"},
		{"fstraced.evictions", "count"},
		{"fstraced.skipped_records", "count"},
		{"fstraced.late_ms", "ms"},
		{"fstraced.lag_p50_ms", "ms"},
		{"fstraced.lag_p99_ms", "ms"},
		{"fstraced.lag_samples", "count"},
	}...)
	for _, r := range replicaLayers {
		for _, l := range r.layers {
			specs = append(specs,
				metricSpec{r.workload + "." + l + ".busy_s", "s"},
				metricSpec{r.workload + "." + l + ".share", "ratio"})
		}
		specs = append(specs,
			metricSpec{r.workload + ".uncovered_share", "ratio"},
			metricSpec{r.workload + ".tracing_overhead_s", "s"})
	}
	return specs
}

// span is one call into a layer's public function.
type span struct {
	Workload string        `json:"workload"`
	Layer    string        `json:"layer"`
	Call     string        `json:"call"`
	Dur      time.Duration `json:"ns"`
	Events   int64         `json:"events"` // records the call consumed or produced
	Units    int64         `json:"units"`  // the call's own work: tape ops, block accesses
	Allocs   uint64        `json:"allocs"`
	Bytes    uint64        `json:"bytes"`
}

// spanOut is what a traced call reports about itself. harness, if set,
// is the benchmark's own collector, whose allocations are not the
// layer's and are subtracted.
type spanOut struct {
	events, units int64
	harness       *collector
}

// tracer records spans when on; off, it just makes the calls. values
// holds results a replica reports as metrics, such as hit ratios; end is
// when the replica's last layer call returned, before its own checks.
type tracer struct {
	on       bool
	workload string
	spans    []span
	values   map[string]float64
	end      time.Time
}

func (t *tracer) call(layer, name string, f func() (spanOut, error)) error {
	if !t.on {
		_, err := f()
		t.end = time.Now()
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out, err := f()
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	s := span{Workload: t.workload, Layer: layer, Call: name, Dur: dur, Events: out.events, Units: out.units,
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc}
	if h := out.harness; h != nil {
		s.Allocs -= min(s.Allocs, h.allocs)
		s.Bytes -= min(s.Bytes, h.bytes)
	}
	t.spans = append(t.spans, s)
	t.end = time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

var eventSize = uint64(unsafe.Sizeof(trace.Event{}))

// collector materializes a stream and counts the allocations its own
// slice growth makes.
type collector struct {
	events        []trace.Event
	allocs, bytes uint64
}

func (c *collector) grew(oldCap int) {
	if cap(c.events) != oldCap {
		c.allocs++
		c.bytes += uint64(cap(c.events)) * eventSize
	}
}

func (c *collector) add(e trace.Event) error {
	old := cap(c.events)
	c.events = append(c.events, e)
	c.grew(old)
	return nil
}

// drain reads src to its end.
func (c *collector) drain(src trace.Source) error {
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	for {
		n, err := trace.ReadBatch(src, batch)
		if n == 0 {
			if err == io.EOF {
				return nil
			}
			return err
		}
		old := cap(c.events)
		c.events = append(c.events, batch[:n]...)
		c.grew(old)
	}
}

// replica is one workload's in-process replay; run returns a summary of
// its results that must be identical on every run.
type replica struct {
	workload string
	run      func(t *tracer) (string, error)
}

// tracedPasses is how many traced passes each replica makes; every
// per-layer metric is the median over them.
const tracedPasses = 3

// tracedRun runs the serve workload once end to end for the daemon's own
// counters and chunk lag, then each workload's replica alternately
// untraced and traced, starting and ending untraced. The tracing overhead
// is the median traced wall time minus the median untraced one.
func (b *bench) tracedRun(ctx context.Context, rec *record) error {
	ref, err := b.serveSetup(ctx)
	if err != nil {
		return fmt.Errorf("serve setup: %w", err)
	}
	sr, err := b.serveOnce(ctx, ref)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fixed := map[string]float64{
		"fstraced.chunks_sealed":    float64(sr.chunks),
		"fstraced.bytes_per_record": sr.bytesPerRecord,
		"fstraced.evictions":        float64(sr.evictions),
		"fstraced.skipped_records":  float64(sr.skipped),
		"fstraced.late_ms":          sr.lateMS,
		"fstraced.lag_p50_ms":       percentile(sr.lags, 50),
		"fstraced.lag_p99_ms":       percentile(sr.lags, 99),
		"fstraced.lag_samples":      float64(len(sr.lags)),
	}

	reportRef, replayData, replayRecords, err := b.replicaInputs(ctx)
	if err != nil {
		return err
	}
	replicas := []replica{
		{"report", func(t *tracer) (string, error) { return b.reportReplica(t, reportRef) }},
		{"replay", func(t *tracer) (string, error) { return replayReplica(t, replayData, replayRecords) }},
		{"serve", func(t *tracer) (string, error) { return b.serveReplica(t, ref) }},
	}
	// passes[k] holds the k-th traced pass's metrics over all replicas.
	passes := make([]map[string]float64, tracedPasses)
	passSpans := make([][]span, tracedPasses)
	for k := range passes {
		passes[k] = map[string]float64{}
	}
	for _, r := range replicas {
		var traced, untraced []float64
		var first string
		for i := 0; i < 2*tracedPasses+1; i++ {
			if ctx.Err() != nil {
				return fmt.Errorf("run budget of %v exhausted", runBudget)
			}
			t := &tracer{on: i%2 == 1, workload: r.workload, values: map[string]float64{}}
			runtime.GC()
			start := time.Now()
			sum, err := r.run(t)
			wall := t.end.Sub(start)
			if !b.t.op(err) {
				return fmt.Errorf("%s replica: %w", r.workload, err)
			}
			if i == 0 {
				first = sum
			} else {
				b.t.check(sum != first, "%s replica results differ across runs: %w", r.workload, errMismatch)
			}
			if !t.on {
				untraced = append(untraced, wall.Seconds())
				continue
			}
			traced = append(traced, wall.Seconds())
			k := i / 2
			passSpans[k] = append(passSpans[k], t.spans...)
			for name, v := range t.values {
				passes[k][name] = v
			}
			var covered time.Duration
			for _, l := range layersOf(r.workload) {
				busy := sumSpans(t.spans, r.workload, l, "").Dur
				covered += busy
				passes[k][r.workload+"."+l+".busy_s"] = busy.Seconds()
				passes[k][r.workload+"."+l+".share"] = busy.Seconds() / wall.Seconds()
			}
			passes[k][r.workload+".uncovered_share"] = 1 - covered.Seconds()/wall.Seconds()
		}
		fixed[r.workload+".tracing_overhead_s"] = median(traced) - median(untraced)
	}

	rec.Runs = tracedPasses
	rec.Metrics = map[string]metric{}
	for k := range passes {
		layerMetrics(passSpans[k], func(name string, v float64) { passes[k][name] = v })
		rec.Spans = append(rec.Spans, passSpans[k]...)
	}
	for _, s := range perLayerSpecs() {
		v, ok := fixed[s.name]
		if !ok {
			var vs []float64
			for _, p := range passes {
				if x, ok := p[s.name]; ok {
					vs = append(vs, x)
				}
			}
			if len(vs) == 0 {
				b.t.op(fmt.Errorf("traced run produced no %s", s.name))
				continue
			}
			v = median(vs)
		}
		rec.Metrics[s.name] = metric{v, s.unit}
	}
	return nil
}

func layersOf(wl string) []string {
	for _, r := range replicaLayers {
		if r.workload == wl {
			return r.layers
		}
	}
	return nil
}

// sumSpans totals the spans of one workload and layer whose call name
// starts with prefix.
func sumSpans(spans []span, wl, layer, prefix string) span {
	var tot span
	for _, s := range spans {
		if s.Workload == wl && s.Layer == layer && strings.HasPrefix(s.Call, prefix) {
			tot.Dur += s.Dur
			tot.Events += s.Events
			tot.Units += s.Units
			tot.Allocs += s.Allocs
			tot.Bytes += s.Bytes
		}
	}
	return tot
}

// layerMetrics derives the per-layer rates from the spans of the calls
// that serve each metric's workload.
func layerMetrics(spans []span, put func(string, float64)) {
	rate := func(n int64, d time.Duration) float64 { return float64(n) / d.Seconds() }
	per := func(n uint64, events int64) float64 { return float64(n) / float64(events) }

	gen := sumSpans(spans, "report", "workload", "GenerateStream")
	put("workload.events_per_s", rate(gen.Events, gen.Dur))
	put("workload.allocs_per_event", per(gen.Allocs, gen.Events))
	put("workload.bytes_per_event", per(gen.Bytes, gen.Events))
	sharded := sumSpans(spans, "serve", "workload", "GenerateStream")
	put("workload.sharded_events_per_s", rate(sharded.Events, sharded.Dur))

	dec := sumSpans(spans, "replay", "trace", "NewReader")
	put("trace.decode_events_per_s", rate(dec.Events, dec.Dur))
	put("trace.decode_allocs_per_event", per(dec.Allocs, dec.Events))
	enc := sumSpans(spans, "serve", "trace", "NewWriterV2")
	put("trace.encode_events_per_s", rate(enc.Events, enc.Dur))
	mrg := sumSpans(spans, "report", "trace", "NewMergeSource")
	put("trace.merge_events_per_s", rate(mrg.Events, mrg.Dur))
	fan := sumSpans(spans, "serve", "trace", "NewFanout")
	put("trace.fanout_events_per_s", rate(fan.Events, fan.Dur))

	an := sumSpans(spans, "replay", "analyzer", "AnalyzeSource")
	put("analyzer.events_per_s", rate(an.Events, an.Dur))
	put("analyzer.allocs_per_event", per(an.Allocs, an.Events))
	put("analyzer.bytes_per_event", per(an.Bytes, an.Events))

	tp := sumSpans(spans, "replay", "xfer", "BuildTape")
	put("xfer.events_per_s", rate(tp.Events, tp.Dur))
	put("xfer.ops_per_event", float64(tp.Units)/float64(tp.Events))
	put("xfer.allocs_per_event", per(tp.Allocs, tp.Events))

	for _, p := range cachesim.AllReplacements() {
		s := sumSpans(spans, "replay", "cachesim", "MultiSimulate/"+p.String()+"/")
		put("cachesim."+p.String()+".accesses_per_s", rate(s.Units, s.Dur))
	}
	t6 := sumSpans(spans, "report", "cachesim", "PolicySweepTape")
	put("cachesim.table_vi_accesses_per_s", rate(t6.Units, t6.Dur))
	tl := sumSpans(spans, "report", "cachesim", "TwoLevelSimulateTapes")
	put("cachesim.twolevel_ops_per_s", rate(tl.Units, tl.Dur))
	hi := sumSpans(spans, "report", "cachesim", "HierarchySimulateTapes")
	put("cachesim.hierarchy_ops_per_s", rate(hi.Units, hi.Dur))

	fr := sumSpans(spans, "report", "ffs", "WasteSweepSource")
	put("ffs.events_per_s", rate(fr.Events, fr.Dur))
	put("ffs.allocs_per_event", per(fr.Allocs, fr.Events))
}

// replicaInputs prepares what the replicas read: the per-machine record
// counts fsreport prints for this seed, and replay's stored trace as
// fstrace writes it.
func (b *bench) replicaInputs(ctx context.Context) (reportRecords string, data []byte, records int64, err error) {
	seed := strconv.FormatInt(b.seed, 10)
	var out bytes.Buffer
	_, err = runCmd(ctx, b.cli("fsreport"), []string{"-duration", "8h", "-seed", seed, "-only", "tableIII"}, &out)
	if !b.t.op(err) {
		return "", nil, 0, err
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "Number of trace records"); ok {
			reportRecords = strings.Join(strings.Fields(strings.ReplaceAll(rest, ",", "")), " ")
		}
	}
	path := filepath.Join(b.tmp, "replay.trace")
	out.Reset()
	_, err = runCmd(ctx, b.cli("fstrace"), []string{"-profile", "A5", "-duration", "8h",
		"-scale", replayScale, "-seed", seed, "-o", path}, &out)
	if !b.t.op(err) {
		return "", nil, 0, err
	}
	if records, err = summaryEvents(out.String()); !b.t.op(err) {
		return "", nil, 0, err
	}
	data, err = os.ReadFile(path)
	return reportRecords, data, records, err
}

var reportMachines = []string{"A5", "E3", "C4"}

// reportReplica is fsreport's pipeline: generate each machine serially,
// analyze it and build its tape, merge the three streams for the shared
// server tape, run Table VI, the A1 replacement ablation, the diskless
// two-level network and a three-tier hierarchy over the machine tapes,
// and the FFS waste sweep over A5. Its per-machine record counts must
// match fsreport's Table III.
func (b *bench) reportReplica(t *tracer, want string) (string, error) {
	streams := make([][]trace.Event, len(reportMachines))
	tapes := make([]*xfer.Tape, len(reportMachines))
	counts := make([]string, len(reportMachines))
	for i, name := range reportMachines {
		var c collector
		if err := t.call("workload", "GenerateStream/"+name, func() (spanOut, error) {
			_, err := workload.GenerateStream(workload.Config{Profile: name, Seed: b.seed,
				Duration: trace.Time((8 * time.Hour).Milliseconds())}, c.add)
			return spanOut{events: int64(len(c.events)), harness: &c}, err
		}); err != nil {
			return "", err
		}
		streams[i] = c.events
		counts[i] = strconv.Itoa(len(c.events))
		if err := analyze(t, streams[i], name); err != nil {
			return "", err
		}
		var err error
		if tapes[i], err = buildTape(t, streams[i], name); err != nil {
			return "", err
		}
	}
	if got := strings.Join(counts, " "); got != want {
		return "", fmt.Errorf("replica generated %s records, fsreport counts %s: %w", got, want, errMismatch)
	}
	var merged collector
	if err := t.call("trace", "NewMergeSource", func() (spanOut, error) {
		srcs := make([]trace.Source, len(streams))
		for i, s := range streams {
			srcs[i] = trace.NewSliceSource(s)
		}
		err := merged.drain(trace.NewMergeSource(srcs...))
		return spanOut{events: int64(len(merged.events)), harness: &merged}, err
	}); err != nil {
		return "", err
	}
	if _, err := buildTape(t, merged.events, "server"); err != nil {
		return "", err
	}

	var sum strings.Builder
	if err := tableVI(t, tapes[0], &sum); err != nil {
		return "", err
	}
	if err := t.call("cachesim", "MultiSimulate/ablationA1", func() (spanOut, error) {
		var cfgs []cachesim.Config
		for _, p := range []cachesim.Replacement{cachesim.LRU, cachesim.Clock, cachesim.FIFO, cachesim.Random} {
			cfgs = append(cfgs, cachesim.Config{BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite, Replacement: p, Seed: 1})
		}
		rs, err := cachesim.MultiSimulate(tapes[0], cfgs)
		var acc int64
		for _, r := range rs {
			acc += r.LogicalAccesses
			fmt.Fprintf(&sum, "%d ", r.DiskIOs())
		}
		return spanOut{units: acc}, err
	}); err != nil {
		return "", err
	}
	var ops int64
	for _, tp := range tapes {
		ops += int64(len(tp.Ops))
	}
	if err := t.call("cachesim", "TwoLevelSimulateTapes", func() (spanOut, error) {
		r, err := cachesim.TwoLevelSimulateTapes(tapes, cachesim.TwoLevelConfig{
			BlockSize: 4096, ClientCache: 512 << 10, ServerCache: 8 << 20, Write: cachesim.DelayedWrite})
		if err == nil {
			fmt.Fprintf(&sum, "%d ", r.ClientReadMisses)
		}
		return spanOut{units: ops}, err
	}); err != nil {
		return "", err
	}
	if err := t.call("cachesim", "HierarchySimulateTapes", func() (spanOut, error) {
		r, err := cachesim.HierarchySimulateTapes(tapes, cachesim.HierarchyConfig{
			BlockSize: 4096,
			Tiers: []cachesim.Tier{
				{Name: "ram", Size: cachesim.UnixCacheSize, Replacement: cachesim.LRU, Write: cachesim.WriteThrough},
				{Name: "flash", Size: 4 << 20, Replacement: cachesim.ARC, Seed: 1, Write: cachesim.DelayedWrite,
					ReadLatency: trace.Millisecond, WriteLatency: 2 * trace.Millisecond, EnduranceWrites: 100_000},
				{Name: "disk", ReadLatency: 10 * trace.Millisecond, WriteLatency: 10 * trace.Millisecond},
			},
		})
		if err == nil {
			for _, tr := range r.Tiers {
				fmt.Fprintf(&sum, "%d ", tr.ReadMisses)
			}
		}
		return spanOut{units: ops}, err
	}); err != nil {
		return "", err
	}
	if err := t.call("ffs", "WasteSweepSource/A5", func() (spanOut, error) {
		rows, err := ffs.WasteSweepSource(trace.NewSliceSource(streams[0]), []int64{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10})
		for _, r := range rows {
			fmt.Fprintf(&sum, "%d ", r.FragAlloc)
		}
		return spanOut{events: int64(len(streams[0]))}, err
	}); err != nil {
		return "", err
	}
	return sum.String(), nil
}

// replayReplica is fsanalyze then fscachesim over the stored trace:
// decode, analyze, build the tape, run Table VI, and run each of the
// nine replacement policies at 2 MB / 4 KB delayed-write. The decoded
// record count must match what fstrace wrote.
func replayReplica(t *tracer, data []byte, records int64) (string, error) {
	var c collector
	if err := t.call("trace", "NewReader", func() (spanOut, error) {
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return spanOut{}, err
		}
		err = c.drain(rd)
		return spanOut{events: int64(len(c.events)), harness: &c}, err
	}); err != nil {
		return "", err
	}
	if int64(len(c.events)) != records {
		return "", fmt.Errorf("replica decoded %d records, fstrace wrote %d: %w", len(c.events), records, errMismatch)
	}
	if err := analyze(t, c.events, "A5"); err != nil {
		return "", err
	}
	tape, err := buildTape(t, c.events, "A5")
	if err != nil {
		return "", err
	}
	var sum strings.Builder
	if err := tableVI(t, tape, &sum); err != nil {
		return "", err
	}
	for _, p := range cachesim.AllReplacements() {
		if err := t.call("cachesim", "MultiSimulate/"+p.String()+"/", func() (spanOut, error) {
			rs, err := cachesim.MultiSimulate(tape, []cachesim.Config{{BlockSize: 4096, CacheSize: 2 << 20,
				Write: cachesim.DelayedWrite, Replacement: p, Seed: 1}})
			if err != nil {
				return spanOut{}, err
			}
			hit := 1 - rs[0].MissRatio()
			t.values["cachesim."+p.String()+".hit_ratio"] = hit
			fmt.Fprintf(&sum, "%s=%.9f ", p, hit)
			return spanOut{units: rs[0].LogicalAccesses}, nil
		}); err != nil {
			return "", err
		}
	}
	return sum.String(), nil
}

// serveReplica is the daemon's pipeline without the network or the
// pacing: sharded generation (which merges the shards), v2 encoding, the
// fan-out to its recorder and analysis subscribers, one decode per
// stream client, and the online analysis. The decoded stream must be the
// records fstrace writes for the same settings.
func (b *bench) serveReplica(t *tracer, ref *serveRef) (string, error) {
	scale, _ := strconv.ParseFloat(serveScale, 64)
	var c collector
	if err := t.call("workload", "GenerateStream/sharded", func() (spanOut, error) {
		_, err := workload.GenerateStream(workload.Config{Profile: "A5", Seed: b.seed,
			Duration: trace.Time(serveDuration.Milliseconds()), UserScale: scale, Shards: b.procs}, c.add)
		return spanOut{events: int64(len(c.events)), harness: &c}, err
	}); err != nil {
		return "", err
	}
	events := c.events
	var buf bytes.Buffer
	if err := t.call("trace", "NewWriterV2", func() (spanOut, error) {
		w := trace.NewWriterV2(&buf, serveChunk)
		for _, e := range events {
			if err := w.Write(e); err != nil {
				return spanOut{}, err
			}
		}
		return spanOut{events: int64(len(events))}, w.Flush()
	}); err != nil {
		return "", err
	}
	if err := t.call("trace", "NewFanout", func() (spanOut, error) {
		return spanOut{events: int64(len(events))}, fanout(events, 2)
	}); err != nil {
		return "", err
	}
	for i := 0; i < b.procs; i++ {
		if err := t.call("trace", "NewReader/client", func() (spanOut, error) {
			rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return spanOut{}, err
			}
			n, err := count(rd)
			return spanOut{events: n}, err
		}); err != nil {
			return "", err
		}
	}
	if err := analyze(t, events, "A5"); err != nil {
		return "", err
	}
	var d eventDigest
	if err := d.source(bytes.NewReader(buf.Bytes())); err != nil {
		return "", err
	}
	if d.n != ref.records || d.sum() != ref.digest {
		return "", fmt.Errorf("replica stream has %d records (digest %016x), fstrace wrote %d (digest %016x): %w",
			d.n, d.sum(), ref.records, ref.digest, errMismatch)
	}
	return fmt.Sprintf("%d %016x %d", d.n, d.sum(), buf.Len()), nil
}

// tableVI runs the Table VI sweep (cache size x write policy at 4 KB
// blocks) and appends each configuration's disk I/Os to sum.
func tableVI(t *tracer, tape *xfer.Tape, sum *strings.Builder) error {
	return t.call("cachesim", "PolicySweepTape/tableVI", func() (spanOut, error) {
		rows, err := cachesim.PolicySweepTape(tape, 4096, cachesim.PaperCacheSizes(), cachesim.PaperPolicies())
		var acc int64
		for _, row := range rows {
			for _, r := range row {
				acc += r.LogicalAccesses
				fmt.Fprintf(sum, "%d ", r.DiskIOs())
			}
		}
		return spanOut{units: acc}, err
	})
}

func analyze(t *tracer, events []trace.Event, name string) error {
	return t.call("analyzer", "AnalyzeSource/"+name, func() (spanOut, error) {
		_, err := analyzer.AnalyzeSource(trace.NewSliceSource(events), analyzer.Options{})
		return spanOut{events: int64(len(events))}, err
	})
}

func buildTape(t *tracer, events []trace.Event, name string) (*xfer.Tape, error) {
	var tape *xfer.Tape
	err := t.call("xfer", "BuildTape/"+name, func() (spanOut, error) {
		var err error
		tape, err = xfer.BuildTape(trace.NewSliceSource(events))
		if err != nil {
			return spanOut{}, err
		}
		return spanOut{events: int64(len(events)), units: int64(len(tape.Ops))}, nil
	})
	return tape, err
}

// fanout tees events to subs subscribers, each drained by its own
// goroutine, and checks every subscriber saw every event.
func fanout(events []trace.Event, subs int) error {
	f := trace.NewFanout(subs)
	got := make([]int64, subs)
	errs := make([]error, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := f.Source(i)
			defer s.Cancel()
			got[i], errs[i] = count(s)
		}(i)
	}
	var werr error
	for _, e := range events {
		if werr = f.Write(e); werr != nil {
			break
		}
	}
	f.Close(werr)
	wg.Wait()
	if werr != nil {
		return werr
	}
	for i := range got {
		if errs[i] != nil {
			return errs[i]
		}
		if got[i] != int64(len(events)) {
			return fmt.Errorf("fanout subscriber %d saw %d of %d events: %w", i, got[i], len(events), errMismatch)
		}
	}
	return nil
}

// count reads src to its end and returns the number of records.
func count(src trace.Source) (int64, error) {
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	var n int64
	for {
		k, err := trace.ReadBatch(src, batch)
		n += int64(k)
		if k == 0 {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
	}
}
