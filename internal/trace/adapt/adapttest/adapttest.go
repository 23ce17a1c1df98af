// Package adapttest is the conformance suite for foreign-trace
// adapters. Every adapter first satisfies the general trace.Source
// contract (via the shared sourcetest suite), then the adapter laws
// stated in package adapt's documentation:
//
//   - the emitted stream is in non-decreasing time order (foreign
//     timestamps that run backwards are clamped, never reordered);
//   - the emitted event kinds are consistent with the declared class:
//     block and page traces have no logical structure, so they may only
//     produce open, seek, and close events;
//   - parsing is deterministic: two independent passes over the same
//     bytes yield DeepEqual event streams and identical statistics;
//   - the stream is well-formed: a strict trace.Validator accepts it
//     with no complaints;
//   - the statistics add up: every input line is accounted as a record
//     or a skip.
package adapttest

import (
	"io"
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/trace/sourcetest"
)

// Factory builds a fresh adapter positioned at the start of the same
// input bytes. It is called many times; each instance must observe an
// identical foreign trace.
type Factory func(t *testing.T) adapt.Source

// Run drives one adapter through the sourcetest contract and the
// adapter laws.
func Run(t *testing.T, mk Factory) {
	t.Helper()

	// One reference drain defines the expected stream for everything
	// else, including the sourcetest equality checks.
	ref, refStats := drain(t, mk(t))

	sourcetest.Run(t, func(t *testing.T) trace.Source { return mk(t) }, ref)

	t.Run("monotone-time", func(t *testing.T) {
		for i := 1; i < len(ref); i++ {
			if ref[i].Time < ref[i-1].Time {
				t.Fatalf("event %d at t=%v after event %d at t=%v: time ran backwards",
					i, ref[i].Time, i-1, ref[i-1].Time)
			}
		}
	})

	t.Run("class-consistent-kinds", func(t *testing.T) {
		src := mk(t)
		class := src.Class()
		if !class.Valid() {
			t.Fatalf("adapter declares invalid class %v", class)
		}
		for i, e := range ref {
			if !e.Kind.Valid() {
				t.Fatalf("event %d has invalid kind %v", i, e.Kind)
			}
			if class == trace.ClassLogical {
				continue
			}
			// Block and page records re-encode as pure transfer triples.
			switch e.Kind {
			case trace.KindOpen, trace.KindSeek, trace.KindClose:
			default:
				t.Fatalf("event %d is %v: class %v sources may only emit open/seek/close",
					i, e.Kind, class)
			}
		}
	})

	t.Run("deterministic-reparse", func(t *testing.T) {
		again, againStats := drain(t, mk(t))
		if !reflect.DeepEqual(again, ref) {
			t.Fatalf("second parse yielded a different stream: %d events vs %d", len(again), len(ref))
		}
		if againStats != refStats {
			t.Fatalf("second parse stats = %+v, want %+v", againStats, refStats)
		}
	})

	t.Run("stable-class", func(t *testing.T) {
		a, b := mk(t), mk(t)
		if a.Class() != b.Class() {
			t.Fatalf("class differs between instances: %v vs %v", a.Class(), b.Class())
		}
	})

	t.Run("valid-stream", func(t *testing.T) {
		v := trace.NewValidator(5)
		for _, e := range ref {
			v.Check(e)
		}
		v.Finish()
		if errs := v.Errs(); len(errs) > 0 {
			t.Fatalf("emitted stream fails strict validation: %v", errs[0])
		}
	})

	t.Run("stats-identity", func(t *testing.T) {
		if refStats.Lines != refStats.Records+refStats.Skipped+refStats.SkippedReads {
			t.Fatalf("stats don't add up: %+v (want Lines = Records + Skipped + SkippedReads)", refStats)
		}
		if refStats.Events != int64(len(ref)) {
			t.Fatalf("stats report %d events, drained %d", refStats.Events, len(ref))
		}
	})
}

// drain pulls an adapter to EOF and returns the stream and final stats.
func drain(t *testing.T, src adapt.Source) ([]trace.Event, adapt.Stats) {
	t.Helper()
	var got []trace.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return got, src.Stats()
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		got = append(got, e)
	}
}
