package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var wls []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	if got, want := strings.Join(wls, " "), strings.Join(workloadNames, " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, command runs %q", got, want)
	}
	check := func(kind string, listed []metricSpec, printed []metricSpec) {
		t.Helper()
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(listed), len(printed))
		}
		for i := 0; i < len(listed) && i < len(printed); i++ {
			if listed[i] != printed[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, command prints %v", kind, i, listed[i], printed[i])
			}
		}
	}
	var e2e, layer []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEndSpecs)
	check("per_layer", layer, perLayerSpecs())
}

func TestCheckReport(t *testing.T) {
	tableIII := []byte("Reproduction header\n\nTable III. Overall statistics.\nNumber of trace records  1,000  2,000\n")
	full := append(append([]byte(nil), tableIII...), "Table IV. More.\n"...)
	b := &bench{seed: 2, root: ".."}
	if err := b.checkReport(full, tableIII); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	bad := bytes.Replace(full, []byte("2,000"), []byte("2,001"), 1)
	if err := b.checkReport(bad, tableIII); !errors.Is(err, errMismatch) {
		t.Fatalf("altered Table III: got %v, want a mismatch", err)
	}
	if n, err := tableIIIRecords(full); err != nil || n != 3000 {
		t.Fatalf("tableIIIRecords = %d, %v; want 3000", n, err)
	}

	golden, err := os.ReadFile(filepath.Join("..", "docs", "report-8h-seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	b.seed = 1
	end := bytes.Index(golden, []byte("Table IV."))
	if end < 0 {
		t.Fatal("golden has no Table IV")
	}
	if err := b.checkReport(golden, golden[:end]); err != nil {
		t.Fatalf("golden rejected: %v", err)
	}
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)-2] ^= 1
	if err := b.checkReport(flipped, golden[:end]); !errors.Is(err, errMismatch) {
		t.Fatalf("altered golden: got %v, want a mismatch", err)
	}
}

func TestAddrWatch(t *testing.T) {
	w := &addrWatch{addr: make(chan string, 1)}
	w.Write([]byte("fstraced: serving A5 seed 1 (8h0m0s simulated) on http://127.0.0."))
	w.Write([]byte("1:40123/\nfstraced: stopped\n"))
	select {
	case a := <-w.addr:
		if a != "127.0.0.1:40123" {
			t.Fatalf("addr %q", a)
		}
	default:
		t.Fatal("no address parsed")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if p := percentile(xs, 99); p != 198 {
		t.Fatalf("p99 of 1..200 = %v, want 198", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestShortRuns builds the CLIs and runs each workload briefly, end to
// end and traced: every check must pass, and the printed metrics must be
// exactly the ones BENCHMARK.json lists.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "-C", "..", "build", "-o", bin+string(filepath.Separator),
		"./cmd/fsreport", "./cmd/fstrace", "./cmd/fsanalyze", "./cmd/fscachesim", "./cmd/fstraced")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	bj := loadBenchmarkJSON(t)
	for _, tc := range []struct {
		workload, trace string
		want            int
	}{
		{"report", "0", len(bj.EndToEnd)},
		{"replay", "0", len(bj.EndToEnd)},
		{"serve", "0", len(bj.EndToEnd)},
		{"report", "1", len(bj.PerLayer)},
	} {
		t.Run(tc.workload+"/trace"+tc.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", tc.workload, "-seed", "3", "-seconds", "1", "-trace", tc.trace,
				"-root", "..", "-bin", bin}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("error_rate %d/%d, correct %v\n%s", res.Failed, res.Attempted, res.Correct, stderr.String())
			}
			if len(res.Metrics) != tc.want {
				t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), tc.want)
			}
			for _, m := range bj.EndToEnd {
				if _, ok := res.Metrics[m.Name]; tc.trace == "0" && !ok {
					t.Errorf("metric %s not printed", m.Name)
				}
			}
			for _, m := range bj.PerLayer {
				if _, ok := res.Metrics[m.Name]; tc.trace == "1" && !ok {
					t.Errorf("metric %s not printed", m.Name)
				}
			}
		})
	}
}
