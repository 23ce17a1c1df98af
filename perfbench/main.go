// Command perfbench is the reproduction's benchmark. It runs one of three
// workloads against the built CLIs, checks every output, and prints the
// end-to-end metrics by name and unit; with -trace 1 it instead runs every
// workload's layers serially in-process, one span per call into a layer's
// public function, and prints the per-layer metrics.
//
// Workloads (the seed is the -seed argument):
//
//	report  fsreport -duration 8h -seed S -ablations, one closed batch job per run
//	replay  fsanalyze, then fscachesim -sweep tableVI, over one stored A5 8h trace at scale 8
//	serve   fstraced -duration 8h -scale 4 -shards nproc at a fixed pace, nproc stream clients
//
// It is normally started through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it, starting
// "record ", carries the same metrics plus the machine fingerprint, the
// output digest and any errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"report", "replay", "serve"}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndSpecs are the metrics of an untraced run, printed for every
// workload. BENCHMARK.json lists the same names and units.
var endToEndSpecs = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
}

// runBudget bounds a whole invocation: every child is killed and reaped
// once it runs out, well inside the three minutes a run may take.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result record: the result's metrics plus what a
// reader needs to compare records across commits and machines.
type record struct {
	Machine  machine           `json:"machine"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Runs     int               `json:"runs"`
	Digest   string            `json:"output_digest,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Extra    map[string]metric `json:"extra,omitempty"`
	Spans    []span            `json:"spans,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

// machine is the fingerprint every record carries.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// tally counts operations and failures: non-zero exits, output
// mismatches, HTTP errors, skipped or evicted stream records and decode
// errors all count as failed operations.
type tally struct {
	attempted, failed int
	errs              []string
}

// op records one operation; a non-nil err marks it failed. It reports
// whether the operation succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
		return false
	}
	return true
}

// check records one check that fails, with the formatted error, when bad.
func (t *tally) check(bad bool, format string, args ...any) bool {
	if bad {
		return t.op(fmt.Errorf(format, args...))
	}
	return t.op(nil)
}

// bench holds one invocation's settings.
type bench struct {
	root    string // repository root: goldens are read from here
	bin     string // directory holding the built CLIs
	tmp     string // scratch directory, removed on exit
	seed    int64
	seconds time.Duration
	procs   int // serve shards and stream clients
	t       tally
}

func (b *bench) cli(name string) string { return filepath.Join(b.bin, name) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "seconds of timed runs")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	root := fs.String("root", ".", "repository root")
	bin := fs.String("bin", "", "directory with the built fsreport, fstrace, fsanalyze, fscachesim and fstraced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !contains(workloadNames, *wl) || *seconds < 1 || (*traced != 0 && *traced != 1) || *bin == "" {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds >= 1, -trace 0|1 and -bin\n", strings.Join(workloadNames, "|"))
		return 2
	}
	for _, name := range []string{"fsreport", "fstrace", "fsanalyze", "fscachesim", "fstraced"} {
		if _, err := os.Stat(filepath.Join(*bin, name)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	b := &bench{root: *root, bin: *bin, tmp: tmp, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, procs: runtime.NumCPU()}
	rec := &record{Workload: *wl, Seed: *seed, Trace: *traced == 1}
	if rec.Trace {
		err = b.tracedRun(ctx, rec)
	} else {
		err = b.endToEnd(ctx, *wl, rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	rec.Machine = fingerprint(ctx, *root)
	rec.Errors = b.t.errs
	for _, e := range rec.Errors {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", *wl, e)
	}
	printTable(stdout, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	res := result{
		Correct:   b.t.failed == 0,
		Attempted: b.t.attempted,
		Failed:    b.t.failed,
		Metrics:   rec.Metrics,
	}
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printTable prints every metric of the record by name and unit.
func printTable(w io.Writer, rec *record) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "perfbench %s run: workload %s, seed %d, %d timed runs\n", mode, rec.Workload, rec.Seed, rec.Runs)
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		rec.Machine.CPU, rec.Machine.NProc, rec.Machine.GOMAXPROCS, rec.Machine.Go, rec.Machine.Commit)
	if rec.Digest != "" {
		fmt.Fprintf(w, "output digest: %s\n", rec.Digest)
	}
	for _, s := range rec.Spans {
		fmt.Fprintf(w, "  span %-7s %-9s %-32s %9.4f s %9d events %10d allocs %12d B\n",
			s.Workload, s.Layer, s.Call, s.Dur.Seconds(), s.Events, s.Allocs, s.Bytes)
	}
	for _, group := range []map[string]metric{rec.Metrics, rec.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
}

// fingerprint identifies the machine and the code a record was made on.
func fingerprint(ctx context.Context, root string) machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A checkout without git metadata has no commit to report; git is not
	// asked, since it would search the directories above the checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	return m
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output mismatch")
