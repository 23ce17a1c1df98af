package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunFullReport drives the complete report path on short traces and
// checks every section appears.
func TestRunFullReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 20 * time.Minute, seed: 1, ablations: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I.", "Table III.", "Table IV.", "Table V.",
		"Inter-event intervals", "Cross-user file sharing",
		"Figure 1(a)", "Figure 2(a)", "Figure 3.", "Figure 4(b)",
		"Table VI.", "Figure 5.", "Table VII.", "Figure 6.", "Figure 7.",
		"Block residency", "Reliability.", "Metadata I/O", "Disk space waste",
		"Shared file server", "Diskless workstations", "Working set W(T)",
		"Ablation A1.", "Ablation A2.", "Ablation A3.", "Ablation A4.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestRunOnly checks section filtering.
func TestRunOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 10 * time.Minute, seed: 2, only: "tableV"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table V.") {
		t.Errorf("tableV missing")
	}
	if strings.Contains(out, "Table VI.") || strings.Contains(out, "Figure 3.") {
		t.Errorf("-only leaked other sections")
	}
}

// TestRunDataExport writes the CSV data set.
func TestRunDataExport(t *testing.T) {
	dir := t.TempDir() + "/data"
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 10 * time.Minute, seed: 1, only: "tableIII", dataDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 12 {
		t.Errorf("only %d CSV files written", len(entries))
	}
}

// TestRunDeterministic: same seed, same bytes.
func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, reportConfig{duration: 10 * time.Minute, seed: 3, only: "tableIV"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, reportConfig{duration: 10 * time.Minute, seed: 3, only: "tableIV"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("report not deterministic")
	}
}

// TestRunStability exercises the seed-spread mode.
func TestRunStability(t *testing.T) {
	var buf bytes.Buffer
	if err := runStability(&buf, 10*time.Minute, 1, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Seed stability", "whole-file read accesses", "mean ± sd"} {
		if !strings.Contains(out, want) {
			t.Errorf("stability output missing %q", want)
		}
	}
}

// TestDegradeGolden holds the 1-hour seed-1 loss-sensitivity sweep to
// its committed output, which the sweep produced when it still re-read
// the A5 trace from a spill file: generating once into a tee must not
// change a digit.
func TestDegradeGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "degrade-1h-seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runDegrade(&buf, time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-degrade -duration 1h output differs from testdata/degrade-1h-seed1.txt:\n%s", buf.Bytes())
	}
}

// TestRunDegrade exercises the loss-sensitivity sweep: both tables
// render, the clean row carries a zero repair budget, and the lossy rows
// show the mangler actually discarding records.
func TestRunDegrade(t *testing.T) {
	var buf bytes.Buffer
	if err := runDegrade(&buf, 20*time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Loss sensitivity", "Repair budget",
		"clean", "0.01%", "0.1%", "1%", "5%",
		"Write-Through", "Delayed Write",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degrade output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("degrade output contains NaN")
	}
	// The clean baseline row must show an untouched repair budget —
	// the no-op guarantee surfacing in the report.
	budget := out[strings.Index(out, "Repair budget"):]
	for _, line := range strings.Split(budget, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "clean" {
			continue
		}
		// clean | events-in | lost | dropped | synthesized | rewritten | bytes unit
		for _, f := range fields[2:7] {
			if f != "0" {
				t.Errorf("clean repair-budget row not all-zero: %q", line)
				break
			}
		}
	}
}

// TestRunLenientFlagPassesClean: -lenient over undamaged streams is a
// no-op — the report renders the same sections as strict mode.
func TestRunLenientFlagPassesClean(t *testing.T) {
	var strict, lenient bytes.Buffer
	if err := run(&strict, reportConfig{duration: 10 * time.Minute, seed: 4, only: "tableIV"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&lenient, reportConfig{duration: 10 * time.Minute, seed: 4, only: "tableIV", lenient: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(strict.Bytes(), lenient.Bytes()) {
		t.Errorf("-lenient changed the report over clean traces")
	}
}

// TestRunReliability renders the crash-injection section alone and
// checks the paper's qualitative ordering survives into the report:
// write-through is never vulnerable, and every policy column renders.
func TestRunReliability(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 20 * time.Minute, seed: 1, only: "reliability"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Reliability.", "Write-Through", "30 sec Flush", "5 min Flush", "Delayed Write",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("reliability section missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Write-Through") && !strings.Contains(line, "0.0%") {
			t.Errorf("write-through row should be 0%% vulnerable: %q", line)
		}
	}
	if strings.Contains(out, "Table VI.") {
		t.Errorf("-only reliability leaked other sections")
	}
}
