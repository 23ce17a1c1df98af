package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

func writeTestTrace(t *testing.T, text bool) string {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "C4", Seed: 8, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c4.trace")
	if text {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Events {
			if _, err := fmt.Fprintln(f, e); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	} else if err := trace.WriteFile(path, res.Events); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalysis(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III.", "Table IV.", "Table V.", "Figure 3.", "Cross-user"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTextInput(t *testing.T) {
	path := writeTestTrace(t, true)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{text: true, only: "tableIII"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table III.") {
		t.Errorf("text input analysis failed:\n%s", buf.String())
	}
	// Binary loader on a text file errors cleanly.
	if err := run(&buf, []string{path}, options{}); err == nil {
		t.Errorf("binary loader accepted text input")
	}
}

func TestRunValidate(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{validate: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 validation errors") {
		t.Errorf("validate output: %s", buf.String())
	}
}

func TestRunTopFiles(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{only: "tableIII", top: 5}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Busiest files") {
		t.Errorf("top files table missing")
	}
}

func TestRunWindow(t *testing.T) {
	path := writeTestTrace(t, false)
	var full, half bytes.Buffer
	if err := run(&full, []string{path}, options{only: "tableIII"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&half, []string{path}, options{only: "tableIII", from: 5 * time.Minute, to: 15 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if full.String() == half.String() {
		t.Errorf("windowing had no effect")
	}
	if !strings.Contains(half.String(), "Table III.") {
		t.Errorf("windowed analysis failed")
	}
}

func TestRunMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"/nonexistent.trace"}, options{}); err == nil {
		t.Errorf("missing file accepted")
	}
}

// writeDamagedV2Trace writes a checkpointed trace with one segment
// destroyed, so strict ingestion sees a partial read and lenient
// ingestion repairs around it.
func writeDamagedV2Trace(t *testing.T) string {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "C4", Seed: 8, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriterV2(&buf, 512)
	for _, e := range res.Events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := len(data) / 2; i < len(data)/2+16; i++ {
		data[i] = 0xAA
	}
	path := filepath.Join(t.TempDir(), "damaged.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunPartialIngestExit: the satellite exit-path contract — a damaged
// trace fails a strict run and succeeds (with repairs) under -lenient.
func TestRunPartialIngestExit(t *testing.T) {
	path := writeDamagedV2Trace(t)
	var buf bytes.Buffer
	err := run(&buf, []string{path}, options{only: "tableIII"})
	if err == nil {
		t.Fatal("strict run accepted a partial ingest")
	}
	if !strings.Contains(err.Error(), "partial ingest") || !strings.Contains(err.Error(), "-lenient") {
		t.Fatalf("partial-ingest error not actionable: %v", err)
	}
	buf.Reset()
	if err := run(&buf, []string{path}, options{only: "tableIII", lenient: true}); err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	if !strings.Contains(buf.String(), "Table III.") {
		t.Errorf("lenient run produced no analysis:\n%s", buf.String())
	}
}

// TestRunLenientTruncatedV1: a truncated v1 stream (no checkpoints to
// resync at) still analyzes under -lenient, ending at the damage.
func TestRunLenientTruncatedV1(t *testing.T) {
	full := writeTestTrace(t, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "truncated.trace")
	if err := os.WriteFile(path, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{only: "tableIII"}); err == nil {
		t.Fatal("strict run accepted a truncated v1 trace")
	}
	buf.Reset()
	if err := run(&buf, []string{path}, options{only: "tableIII", lenient: true}); err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	if !strings.Contains(buf.String(), "Table III.") {
		t.Errorf("lenient run produced no analysis:\n%s", buf.String())
	}
}

// TestRunValidateReportsFirstBad: -validate shows the offending record
// verbatim and the per-kind tally.
func TestRunValidateReportsFirstBad(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, Mode: trace.ReadOnly, Size: 10},
		{Time: 5, Kind: trace.KindClose, OpenID: 42, NewPos: 7},
	}
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := trace.WriteFile(path, events); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{validate: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "first failing event") || !strings.Contains(out, "close") {
		t.Errorf("first failing event not reported verbatim:\n%s", out)
	}
	if !strings.Contains(out, "1 open") || !strings.Contains(out, "1 close") {
		t.Errorf("per-kind tally missing:\n%s", out)
	}
	if !strings.Contains(out, "1 validation errors") {
		t.Errorf("validation summary missing:\n%s", out)
	}
}
