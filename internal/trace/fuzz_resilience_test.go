package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzEvents maps arbitrary fuzz bytes onto a stream of events, 9 bytes
// per event, deliberately covering invalid kinds, out-of-range modes,
// negative sizes and positions, and non-monotonic times — the full
// damage space the recovery layer claims to repair.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	var now Time
	for ; len(data) >= 9; data = data[9:] {
		now += Time(int8(data[0])) * Second // jitters backward too
		evs = append(evs, Event{
			Time:   now,
			Kind:   Kind(data[1] % 12), // includes invalid kinds
			OpenID: OpenID(data[2] % 8),
			File:   FileID(data[3] % 16),
			User:   UserID(data[4] % 4),
			Mode:   Mode(data[5] % 6), // includes invalid modes
			Size:   int64(int8(data[6])) * 512,
			OldPos: int64(int8(data[7])) * 512,
			NewPos: int64(int8(data[8])) * 512,
		})
	}
	return evs
}

// FuzzRecoverSource is the repair layer's core guarantee under fuzz:
// whatever garbage goes in, Recover never panics, its accounting
// identity holds exactly, and the repaired stream always passes the
// validator with zero errors.
func FuzzRecoverSource(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 1, 7, 0, 2, 1, 0, 1})                         // one open
	f.Add([]byte{5, 2, 1, 7, 0, 0, 0, 0, 1})                         // orphaned close
	f.Add(bytes.Repeat([]byte{1, 11, 3, 3, 3, 5, 255, 255, 255}, 4)) // invalid kinds
	f.Add(bytes.Repeat([]byte{255, 0, 1, 7, 0, 2, 1, 0, 1}, 3))      // time runs backward, id reuse
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzEvents(data)
		out, st := recoverSlice(in)
		if st.Events != int64(len(in)) || st.Emitted != int64(len(out)) {
			t.Fatalf("stats disagree with slices: %+v for %d in, %d out", st, len(in), len(out))
		}
		if st.Emitted != st.Events-st.Dropped+st.Synthesized {
			t.Fatalf("accounting identity broken: %+v", st)
		}
		if errs, _ := Validate(out); len(errs) > 0 {
			t.Fatalf("repaired stream fails validation: %v", errs[0])
		}
	})
}

// FuzzCheckpointReader feeds arbitrary bytes to the version-2 decoder:
// it must never panic, must terminate, and whatever events it does
// accept must survive a v2 re-encode/re-decode round trip with zero
// skips — verified segments are real data, not artifacts of the damage.
func FuzzCheckpointReader(f *testing.F) {
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
	w := NewWriterV2(&valid, 3)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:5])                    // header only
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // truncated mid-checkpoint
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	garbage := append([]byte(nil), valid.Bytes()[:12]...)
	garbage = append(garbage, bytes.Repeat([]byte{0xFF, 'B', 'S'}, 10)...)
	garbage = append(garbage, valid.Bytes()[12:]...)
	f.Add(garbage)
	f.Add([]byte("BSDT"))

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
				return // v1 streams may still reject mid-stream
			}
			got = append(got, e)
		}
		sk := r.Skipped()
		if sk.Bytes < 0 || sk.Records < 0 || sk.Segments < 0 {
			t.Fatalf("negative skip accounting: %+v", sk)
		}

		// Whatever survived verification must round-trip cleanly through
		// the v2 framing.
		var buf bytes.Buffer
		w := NewWriterV2(&buf, 3)
		for _, e := range got {
			if err := w.Write(e); err != nil {
				t.Fatalf("re-encoding accepted event %+v: %v", e, err)
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
		if !r2.Skipped().Zero() {
			t.Fatalf("round trip reported skips: %+v", r2.Skipped())
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
