package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// goldenPath is the committed 8-hour seed-1 report every release of the
// pipeline must reproduce byte for byte.
const goldenPath = "../../docs/report-8h-seed1.txt"

// goldenNumbers pins the report's headline values individually, so a
// drift failure names the number that moved instead of only "bytes
// differ". Each needle is a full line (or unambiguous fragment) of
// docs/report-8h-seed1.txt.
var goldenNumbers = []struct {
	what   string
	needle string
}{
	{"Table I whole-file transfer share", "Whole-file transfers: 68.1% of accesses (paper: ~70%)"},
	{"Table I bytes in whole-file transfers", "Bytes moved in whole-file transfers: 55.4% (paper: ~50%)"},
	{"Table I open durations", "Files open < 0.5 sec: 78.2% (paper: 75%); < 10 sec: 95.0% (paper: 90%)"},
	{"Table I data lifetimes", "New bytes dead within 30 sec: 23.3% (paper: 20-30%); within 5 min: 49.1% (paper: ~50%)"},
	{"Table I 4MB cache effectiveness", "4-Mbyte cache eliminates 64.7%-80.3% of disk accesses by write policy (paper: 65-90%)"},
	{"Table III A5 record count", "Number of trace records                 125,283         134,734          54,220"},
	{"Table IV per-user throughput", "Bytes/sec per active user (10-min intervals): 650 (paper: ~300-570)"},
	{"Table V A5 whole-file reads", "Whole-file read transfers (% of read-only accesses)     23,397 (68.3%)   24,924 (68.1%)   8,536 (67.5%)"},
	{"Table VI 2MB row", "2 Mbytes                   42.7%         36.9%        32.9%          29.3%"},
	{"Table VI 4MB row", "4 Mbytes                   35.3%         29.5%        25.4%          19.7%"},
	{"server section A5 private cache", "private cache, A5            2 Mbytes     28,434       29.3%"},
	{"ablation A1 LRU row", "lru        28,434       29.3%"},
}

// TestGoldenReport regenerates the full 8-hour seed-1 report — on the
// streaming fan-out path — and holds it to the committed golden file.
// The spot checks run first so a drift names the value that moved; the
// byte comparison then catches everything else, including formatting.
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("8-hour golden regeneration skipped in -short mode")
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	for _, g := range goldenNumbers {
		if !bytes.Contains(golden, []byte(g.needle)) {
			t.Fatalf("golden file no longer contains the pinned %s line %q; "+
				"regenerate docs/report-8h-seed1.txt and update goldenNumbers together", g.what, g.needle)
		}
	}

	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 8 * time.Hour, seed: 1, ablations: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, g := range goldenNumbers {
		if !strings.Contains(out, g.needle) {
			t.Errorf("%s drifted: report no longer contains %q", g.what, g.needle)
		}
	}
	if t.Failed() {
		return // the named drifts explain the byte mismatch below
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		gotLines := strings.Split(out, "\n")
		wantLines := strings.Split(string(golden), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("report drifted from %s at line %d:\n got: %q\nwant: %q",
					goldenPath, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("report drifted from %s: %d lines generated, %d in golden",
			goldenPath, len(gotLines), len(wantLines))
	}
}

// TestGoldenShardInvariance: -shards 1 must not move a single byte of
// the report relative to unsharded generation — the anchor of the shard
// determinism contract at the command level.
func TestGoldenShardInvariance(t *testing.T) {
	var unsharded, oneShard bytes.Buffer
	if err := run(&unsharded, reportConfig{duration: 20 * time.Minute, seed: 1, only: "tableV"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&oneShard, reportConfig{duration: 20 * time.Minute, seed: 1, only: "tableV", shards: 1, scale: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unsharded.Bytes(), oneShard.Bytes()) {
		t.Fatal("-shards 1 changed the report relative to unsharded generation")
	}
}
