package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzParseEvent checks that the text parser never panics on arbitrary
// lines and that accepted events survive a format/parse round trip:
// whatever ParseEvent admits, formatEvent must print back into a line
// that parses to the identical event. The corpus seeds one line of every
// kind plus near-miss malformed lines.
func FuzzParseEvent(f *testing.F) {
	for _, line := range []string{
		"12 create 1 7 3 w 0",
		"104 open 2 7 3 r 8192",
		"350 close 2 8192",
		"400 seek 2 0 4096",
		"512 unlink 7",
		"612 truncate 7 100",
		"712 execve 9 3 20480",
		"# comment",
		"",
		"12 create 1 7 3 q 0", // bad mode
		"12 open 1 7 3 rw",    // short field list
		"x close 2 0",         // bad time
		"9 close 2 0 extra",   // long field list
		"-5 unlink 7",         // negative time
		"9223372036854775807 unlink 1",
		"12 frobnicate 1",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseEvent(line)
		if err != nil {
			return
		}
		again, err := ParseEvent(formatEvent(e))
		if err != nil {
			t.Fatalf("formatEvent(%+v) = %q does not re-parse: %v", e, formatEvent(e), err)
		}
		if again != e {
			t.Fatalf("round trip changed the event: %+v -> %q -> %+v", e, formatEvent(e), again)
		}
	})
}

// readerNextSeeds is FuzzReaderNext's seed corpus: a valid trace, its
// header alone, a truncation, a corruption, and two non-traces.
func readerNextSeeds(tb testing.TB) [][]byte {
	events := []Event{
		{Time: 10, Kind: KindCreate, OpenID: 1, File: 7, User: 3, Mode: WriteOnly},
		{Time: 20, Kind: KindSeek, OpenID: 1, OldPos: 0, NewPos: 4096},
		{Time: 30, Kind: KindClose, OpenID: 1, NewPos: 8192},
		{Time: 30, Kind: KindOpen, OpenID: 2, File: 7, User: 3, Mode: ReadOnly, Size: 8192},
		{Time: 45, Kind: KindClose, OpenID: 2, NewPos: 8192},
		{Time: 50, Kind: KindExec, File: 9, User: 3, Size: 20480},
		{Time: 60, Kind: KindTruncate, File: 7, Size: 100},
		{Time: 70, Kind: KindUnlink, File: 7},
	}
	var valid bytes.Buffer
	w := NewWriter(&valid)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[7] ^= 0xff
	return [][]byte{
		valid.Bytes(),
		valid.Bytes()[:5],                    // header only: a valid empty trace
		valid.Bytes()[:len(valid.Bytes())-3], // truncated mid-record
		corrupt,
		[]byte("BSDT"),
		[]byte("not a trace at all"),
	}
}

// FuzzReaderNext feeds arbitrary bytes to the binary decoder: Next must
// never panic, and any stream it fully accepts must survive a
// re-encode/re-decode round trip. The corpus seeds a valid stream, a
// bare header, and truncations/corruptions of the valid stream.
func FuzzReaderNext(f *testing.F) {
	for _, seed := range readerNextSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var got []Event
		for {
			e, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return // malformed mid-stream: rejected, fine
			}
			got = append(got, e)
		}

		// Fully accepted: the decoded events must re-encode and decode
		// to themselves (the codec is a bijection on its accepted set).
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range got {
			if err := w.Write(e); err != nil {
				t.Fatalf("re-encoding decoded event %+v: %v", e, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := r2.ReadAll()
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if len(back) != len(got) {
			t.Fatalf("round trip: %d events became %d", len(got), len(back))
		}
		for i := range got {
			if back[i] != got[i] {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, got[i], back[i])
			}
		}
	})
}
