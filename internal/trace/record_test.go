package trace_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

// acceptedEvents decodes data up to its end or its first error: every
// event a reader accepts from it. Data that is not a trace yields none.
func acceptedEvents(data []byte) []trace.Event {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil
	}
	var out []trace.Event
	for {
		e, err := r.Next()
		if err != nil {
			return out
		}
		out = append(out, e)
	}
}

// checkSizing writes events through a version-1 Writer and demands that
// the bytes are the header followed by the AppendRecord records, so the
// length is HeaderLen + Σ len(AppendRecord), and that the analyzer's
// EncodedSize is that same length.
func checkSizing(t *testing.T, events []trace.Event) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var recs []byte
	var prev trace.Time
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		var err error
		if recs, err = trace.AppendRecord(recs, prev, e); err != nil {
			t.Fatal(err)
		}
		prev = e.Time
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), trace.HeaderLen+len(recs); got != want {
		t.Fatalf("%d events: Writer wrote %d bytes, HeaderLen + records = %d", len(events), got, want)
	}
	if !bytes.Equal(buf.Bytes()[trace.HeaderLen:], recs) {
		t.Fatalf("%d events: Writer's record bytes differ from AppendRecord's", len(events))
	}
	an, err := analyzer.AnalyzeSource(trace.NewSliceSource(events), analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Overall.EncodedSize != int64(buf.Len()) {
		t.Fatalf("%d events: EncodedSize = %d, Writer wrote %d bytes", len(events), an.Overall.EncodedSize, buf.Len())
	}
}

// TestAppendRecordSizesTrace pins the one record encoder against the
// bytes a version-1 Writer emits, and Table III's "Size of trace file"
// (EncodedSize) against both, over the empty trace, every fixture file,
// the FuzzReaderNext seed corpus and the A5 8-hour seed-1 trace.
func TestAppendRecordSizesTrace(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		checkSizing(t, nil)
		an, err := analyzer.AnalyzeSource(trace.NewSliceSource(nil), analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Overall.EncodedSize != 5 {
			t.Fatalf("empty trace EncodedSize = %d, want 5", an.Overall.EncodedSize)
		}
	})
	files, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		t.Run(f.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			events := acceptedEvents(data)
			if len(events) == 0 {
				t.Fatalf("fixture yields no events")
			}
			checkSizing(t, events)
		})
	}
	for i, seed := range trace.ReaderNextSeeds(t) {
		t.Run("reader-seed-"+strconv.Itoa(i), func(t *testing.T) {
			checkSizing(t, acceptedEvents(seed))
		})
	}
	t.Run("A5-8h-seed1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("8-hour generation skipped in -short mode")
		}
		res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: 8 * trace.Hour})
		if err != nil {
			t.Fatal(err)
		}
		checkSizing(t, res.Events)
	})
}

// TestAppendRecordInvalidKinds: an invalid kind has no record. The
// encoder returns dst unchanged with an error, the Writer writes
// nothing, and the analyzer's size neither grows nor moves its delta
// base.
func TestAppendRecordInvalidKinds(t *testing.T) {
	for k := 0; k < 256; k++ {
		kind := trace.Kind(k)
		if kind.Valid() {
			continue
		}
		dst := []byte{1, 2, 3}
		out, err := trace.AppendRecord(dst, 7, trace.Event{Time: 100, Kind: kind, File: 9})
		if err == nil || !bytes.Equal(out, []byte{1, 2, 3}) {
			t.Fatalf("kind %d: AppendRecord = %v, %v; want dst unchanged and an error", k, out, err)
		}
	}

	// The invalid event sits far from both neighbors, so a moved delta
	// base would change the second record's varint length.
	first := trace.Event{Time: 0, Kind: trace.KindUnlink, File: 1}
	bad := trace.Event{Time: 10_000, Kind: trace.KindInvalid, File: 2}
	second := trace.Event{Time: 10_001, Kind: trace.KindUnlink, File: 3}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range []trace.Event{first, bad, second} {
		if err := w.Write(e); (err != nil) != (e == bad) {
			t.Fatalf("Write(%v) = %v", e, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, _ := trace.AppendRecord(nil, 0, first)
	recs, _ = trace.AppendRecord(recs, first.Time, second)
	if buf.Len() != trace.HeaderLen+len(recs) {
		t.Fatalf("Writer wrote %d bytes, want %d", buf.Len(), trace.HeaderLen+len(recs))
	}
	an, err := analyzer.AnalyzeSource(trace.NewSliceSource([]trace.Event{first, bad, second}), analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Overall.EncodedSize != int64(buf.Len()) {
		t.Fatalf("EncodedSize = %d, Writer wrote %d bytes", an.Overall.EncodedSize, buf.Len())
	}
}

// TestWriterZeroAllocs: after warm-up, encoding an event allocates
// nothing, in either format version.
func TestWriterZeroAllocs(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    *trace.Writer
	}{
		{"v1", trace.NewWriter(io.Discard)},
		{"v2", trace.NewWriterV2(io.Discard, 0)},
	} {
		write := func() {
			for _, e := range res.Events {
				if err := tc.w.Write(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		write() // warm-up: header, record and checkpoint buffers
		if avg := testing.AllocsPerRun(5, write); avg != 0 {
			t.Errorf("%s: %v allocs per %d-event pass, want 0", tc.name, avg, len(res.Events))
		}
	}
}

// FuzzAppendRecord: every record AppendRecord produces decodes back
// through a Reader to the event it encoded, whatever the delta base.
func FuzzAppendRecord(f *testing.F) {
	f.Add(int64(0), int64(10), uint8(trace.KindCreate), uint64(1), uint64(7), uint32(3), uint8(trace.WriteOnly), int64(0), int64(0), int64(0))
	f.Add(int64(100), int64(50), uint8(trace.KindSeek), uint64(2), uint64(0), uint32(0), uint8(0), int64(0), int64(4096), int64(-1))
	f.Add(int64(-1<<63), int64(1<<63-1), uint8(trace.KindExec), uint64(1<<64-1), uint64(9), uint32(1<<32-1), uint8(0), int64(-5), int64(0), int64(0))
	f.Add(int64(0), int64(0), uint8(0), uint64(0), uint64(0), uint32(0), uint8(0), int64(0), int64(0), int64(0))
	var hdr bytes.Buffer
	if err := trace.NewWriter(&hdr).Flush(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, prev, tm int64, kind uint8, open, file uint64, user uint32, mode uint8, size, oldPos, newPos int64) {
		// Only the fields the kind's layout carries.
		e := trace.Event{Time: trace.Time(tm), Kind: trace.Kind(kind)}
		switch e.Kind {
		case trace.KindCreate, trace.KindOpen:
			e.OpenID, e.File, e.User, e.Mode, e.Size = trace.OpenID(open), trace.FileID(file), trace.UserID(user), trace.Mode(mode), size
		case trace.KindClose:
			e.OpenID, e.NewPos = trace.OpenID(open), newPos
		case trace.KindSeek:
			e.OpenID, e.OldPos, e.NewPos = trace.OpenID(open), oldPos, newPos
		case trace.KindUnlink:
			e.File = trace.FileID(file)
		case trace.KindTruncate:
			e.File, e.Size = trace.FileID(file), size
		case trace.KindExec:
			e.File, e.User, e.Size = trace.FileID(file), trace.UserID(user), size
		}
		// A first record sets the delta base to prev.
		base := trace.Event{Time: trace.Time(prev), Kind: trace.KindUnlink}
		stream, err := trace.AppendRecord(bytes.Clone(hdr.Bytes()), 0, base)
		if err != nil {
			t.Fatal(err)
		}
		n := len(stream)
		stream, err = trace.AppendRecord(stream, base.Time, e)
		if !e.Kind.Valid() {
			if err == nil || len(stream) != n {
				t.Fatalf("kind %d: err = %v, appended %d bytes; want an error and none", kind, err, len(stream)-n)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []trace.Event{base, e} {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("decoding %+v: %v", want, err)
			}
			if got != want {
				t.Fatalf("decoded %+v, encoded %+v", got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the last record: %v, want io.EOF", err)
		}
	})
}
