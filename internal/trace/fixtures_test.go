package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fixtureEvents is the deterministic trace behind every committed
// fixture in testdata/: regenerating and checking use the same source.
func fixtureEvents() []Event { return randomTrace(41, 1000) }

// fixtureSpecs builds the committed corpus from the clean trace: each
// entry is one damage mode the resilient reader and the repair layer
// must survive.
func fixtureSpecs(t testing.TB) map[string][]byte {
	events := fixtureEvents()
	var v1 bytes.Buffer
	w := NewWriter(&v1)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v2 := encodeV2(t, events, 64)

	mutate := func(data []byte, f func([]byte)) []byte {
		out := append([]byte(nil), data...)
		f(out)
		return out
	}
	return map[string][]byte{
		"clean-v2.bin":                   append([]byte(nil), v2...),
		"corrupt-v1-truncated.bin":       v1.Bytes()[:len(v1.Bytes())*2/3],
		"corrupt-v1-bitflip.bin":         mutate(v1.Bytes(), func(b []byte) { b[len(b)/2] ^= 0x55 }),
		"corrupt-v2-segment-bitflip.bin": mutate(v2, func(b []byte) { b[len(b)/3] ^= 0x55 }),
		"corrupt-v2-garbage-fill.bin": mutate(v2, func(b []byte) {
			for i := len(b) / 2; i < len(b)/2+64; i++ {
				b[i] = 0xAA
			}
		}),
		"corrupt-v2-truncated.bin": append([]byte(nil), v2[:len(v2)*3/4]...),
	}
}

// TestRegenCorruptFixtures rewrites the committed corpus; it only runs
// when BSDTRACE_REGEN_FIXTURES=1, so the files stay stable otherwise.
func TestRegenCorruptFixtures(t *testing.T) {
	if os.Getenv("BSDTRACE_REGEN_FIXTURES") != "1" {
		t.Skip("set BSDTRACE_REGEN_FIXTURES=1 to rewrite testdata fixtures")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fixtureSpecs(t) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptFixtureCorpus replays every committed fixture through the
// degraded-ingest pipeline: the reader must terminate without panic,
// whatever it accepts must repair into a stream that validates clean,
// and the undamaged fixture must come back complete with zero skips.
func TestCorruptFixtureCorpus(t *testing.T) {
	specs := fixtureSpecs(t)
	for name, want := range specs {
		path := filepath.Join("testdata", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with BSDTRACE_REGEN_FIXTURES=1)", path, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: committed fixture drifted from its spec (regenerate with BSDTRACE_REGEN_FIXTURES=1)", name)
			continue
		}

		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		var got []Event
		var decodeErr error
		for {
			e, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				decodeErr = err // v1 damage: stream ends early, that is the contract
				break
			}
			got = append(got, e)
		}
		repaired, st := recoverSlice(got)
		if st.Emitted != st.Events-st.Dropped+st.Synthesized {
			t.Errorf("%s: accounting identity broken: %+v", name, st)
		}
		if errs, _ := Validate(repaired); len(errs) > 0 {
			t.Errorf("%s: repaired fixture fails validation: %v", name, errs[0])
		}

		events := fixtureEvents()
		switch name {
		case "clean-v2.bin":
			if decodeErr != nil || !r.Skipped().Zero() || len(got) != len(events) {
				t.Errorf("clean-v2.bin: %d/%d events, skips %+v, err %v",
					len(got), len(events), r.Skipped(), decodeErr)
			}
		case "corrupt-v2-segment-bitflip.bin", "corrupt-v2-garbage-fill.bin", "corrupt-v2-truncated.bin":
			if decodeErr != nil {
				t.Errorf("%s: v2 reader gave up instead of resyncing: %v", name, decodeErr)
			}
			if len(got) == 0 {
				t.Errorf("%s: no events survived", name)
			}
			if r.Skipped().Zero() {
				t.Errorf("%s: damage left no trace in SkipStats", name)
			}
		default: // v1 damage: some prefix must survive
			if len(got) == 0 {
				t.Errorf("%s: no events survived", name)
			}
		}
	}
}
