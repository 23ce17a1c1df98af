package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// sample is one timed run's end-to-end measurement.
type sample struct {
	wall, cpu time.Duration
	rssMiB    float64
	eps       float64 // records per second of the timed part
}

// workloadRun is one workload's untraced procedure. setup prepares the
// inputs and references; it runs setupReps times and its median time is
// setup_s. iter is one timed run; it records its own operations in the
// tally and returns an error when its sample is unusable. finish adds the
// output digest and the workload's extra metrics to the record.
type workloadRun struct {
	setup  func(ctx context.Context) error
	iter   func(ctx context.Context) (sample, error)
	finish func(rec *record)
}

const (
	setupReps = 3 // set-ups per invocation; setup_s is their median
	minRuns   = 3 // timed runs per invocation, however long they take
)

// endToEnd sets the workload up, repeats its timed part for the
// configured seconds, and reports the medians over the runs.
func (b *bench) endToEnd(ctx context.Context, name string, rec *record) error {
	var w workloadRun
	switch name {
	case "report":
		w = b.reportWorkload()
	case "replay":
		w = b.replayWorkload()
	case "serve":
		w = b.serveWorkload()
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var walls, cpus, rss, eps []float64
	start := time.Now()
	for tries := 0; tries < minRuns || time.Since(start) < b.seconds; tries++ {
		if ctx.Err() != nil {
			b.t.op(fmt.Errorf("run budget of %v exhausted", runBudget))
			break
		}
		s, err := w.iter(ctx)
		if err != nil {
			continue
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, s.rssMiB)
		eps = append(eps, s.eps)
	}
	if len(walls) == 0 {
		return errors.New("no timed run succeeded: " + strings.Join(b.t.errs, "; "))
	}
	rec.Runs = len(walls)
	rec.Metrics = map[string]metric{
		"wall_s":       {median(walls), "s"},
		"cpu_s":        {median(cpus), "s"},
		"peak_rss_mib": {median(rss), "MiB"},
		"events_per_s": {median(eps), "1/s"},
		"setup_s":      {median(setups), "s"},
	}
	rec.Extra = map[string]metric{}
	w.finish(rec)
	rec.Extra["error_rate"] = metric{float64(b.t.failed) / float64(b.t.attempted), "ratio"}
	return nil
}

// reportWorkload is the paper's golden run: fsreport over A5, E3 and C4
// with the ablations, one closed batch job per timed run. Set-up is the
// gated Table III run of the same seed, whose table must reappear
// verbatim in every full report; at seed 1 the full report must also
// equal the checked-in golden.
func (b *bench) reportWorkload() workloadRun {
	seed := strconv.FormatInt(b.seed, 10)
	var tableIII, first []byte
	var digest string
	return workloadRun{
		setup: func(ctx context.Context) error {
			var out bytes.Buffer
			_, err := runCmd(ctx, b.cli("fsreport"), []string{"-duration", "8h", "-seed", seed, "-only", "tableIII"}, &out)
			if !b.t.op(err) {
				return err
			}
			if tableIII == nil {
				tableIII = out.Bytes()
				return nil
			}
			b.t.op(sameOutput("fsreport -only tableIII across set-ups", out.Bytes(), tableIII))
			return nil
		},
		iter: func(ctx context.Context) (sample, error) {
			var out bytes.Buffer
			u, err := runCmd(ctx, b.cli("fsreport"), []string{"-duration", "8h", "-seed", seed, "-ablations"}, &out)
			if !b.t.op(err) {
				return sample{}, err
			}
			records, err := tableIIIRecords(out.Bytes())
			if !b.t.op(err) {
				return sample{}, err
			}
			if first == nil {
				first = out.Bytes()
				digest = sha256Hex(first)
				b.t.op(b.checkReport(first, tableIII))
			} else {
				b.t.op(sameOutput("fsreport across runs", out.Bytes(), first))
			}
			return sample{wall: u.wall, cpu: u.cpu, rssMiB: u.rssMiB, eps: float64(records) / u.wall.Seconds()}, nil
		},
		finish: func(rec *record) { rec.Digest = digest },
	}
}

// checkReport checks a full report against the set-up's gated Table III
// run and, at seed 1, against the golden.
func (b *bench) checkReport(full, tableIII []byte) error {
	i := bytes.Index(tableIII, []byte("Table III."))
	if i < 0 {
		return fmt.Errorf("fsreport -only tableIII printed no Table III")
	}
	if !bytes.HasPrefix(full, tableIII[:i]) || !bytes.Contains(full, tableIII[i:]) {
		return fmt.Errorf("fsreport: full report disagrees with the gated Table III run: %w", errMismatch)
	}
	if b.seed != 1 {
		return nil
	}
	golden, err := os.ReadFile(filepath.Join(b.root, "docs", "report-8h-seed1.txt"))
	if err != nil {
		return fmt.Errorf("golden: %v", err)
	}
	return sameOutput("fsreport against docs/report-8h-seed1.txt", full, golden)
}

// Replay's stored trace: one A5 machine at user scale 8.
const replayScale = "8"

// replayWorkload reads one stored trace twice: fsanalyze, then
// fscachesim -sweep tableVI. Set-up writes the trace with fstrace; every
// set-up must write the same bytes, and the analyzer must count the
// records fstrace reported writing. The timed runs' outputs must agree.
func (b *bench) replayWorkload() workloadRun {
	seed := strconv.FormatInt(b.seed, 10)
	path := filepath.Join(b.tmp, "a5.trace")
	var traceSum string
	var written int64
	var first [2][]byte
	var digest string
	return workloadRun{
		setup: func(ctx context.Context) error {
			var out bytes.Buffer
			_, err := runCmd(ctx, b.cli("fstrace"), []string{"-profile", "A5", "-duration", "8h",
				"-scale", replayScale, "-seed", seed, "-o", path}, &out)
			if !b.t.op(err) {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if traceSum == "" {
				traceSum = sha256Hex(data)
				written, err = summaryEvents(out.String())
				if !b.t.op(err) {
					return err
				}
				return nil
			}
			b.t.check(sha256Hex(data) != traceSum, "fstrace wrote different bytes across set-ups: %w", errMismatch)
			return nil
		},
		iter: func(ctx context.Context) (sample, error) {
			var an, cs bytes.Buffer
			start := time.Now()
			ua, err := runCmd(ctx, b.cli("fsanalyze"), []string{path}, &an)
			if !b.t.op(err) {
				return sample{}, err
			}
			uc, err := runCmd(ctx, b.cli("fscachesim"), []string{"-sweep", "tableVI", path}, &cs)
			if !b.t.op(err) {
				return sample{}, err
			}
			wall := time.Since(start)
			records, err := tableIIIRecords(an.Bytes())
			if !b.t.op(err) {
				return sample{}, err
			}
			if first[0] == nil {
				first = [2][]byte{an.Bytes(), cs.Bytes()}
				digest = sha256Hex(append(append([]byte(nil), first[0]...), first[1]...))
				b.t.check(records != written, "fsanalyze counted %d records, fstrace wrote %d: %w", records, written, errMismatch)
			} else {
				b.t.op(sameOutput("fsanalyze across runs", an.Bytes(), first[0]))
				b.t.op(sameOutput("fscachesim -sweep tableVI across runs", cs.Bytes(), first[1]))
			}
			return sample{
				wall:   wall,
				cpu:    ua.cpu + uc.cpu,
				rssMiB: max(ua.rssMiB, uc.rssMiB),
				eps:    float64(records) / wall.Seconds(),
			}, nil
		},
		finish: func(rec *record) { rec.Digest = digest },
	}
}

// sameOutput reports a mismatch between got and want.
func sameOutput(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: %w (%d bytes, want %d)", what, errMismatch, len(got), len(want))
}

// tableIIIRecords sums the "Number of trace records" row of a Table III
// rendering: the records the run generated or read.
func tableIIIRecords(out []byte) (int64, error) {
	for _, line := range strings.Split(string(out), "\n") {
		rest, ok := strings.CutPrefix(line, "Number of trace records")
		if !ok {
			continue
		}
		var total int64
		for _, f := range strings.Fields(rest) {
			n, err := strconv.ParseInt(strings.ReplaceAll(f, ",", ""), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("table III record count %q: %v", f, err)
			}
			total += n
		}
		if total > 0 {
			return total, nil
		}
	}
	return 0, errors.New("output has no Table III record count")
}

// summaryEvents reads the event count from fstrace's summary line
// ("931057 events: create ...").
func summaryEvents(out string) (int64, error) {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "events:" {
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New("fstrace printed no event count")
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
