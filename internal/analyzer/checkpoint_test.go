package analyzer

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
)

// TestStreamCheckpointRoundTrip is the restore invariant: checkpoint a
// stream at position k, restore it, feed both the original and the
// restored copy the remaining events, and the finished analyses are
// identical — the restored run is indistinguishable from one that never
// stopped. Checked at several cut points including 0 (nothing fed) and
// the end (nothing left).
func TestStreamCheckpointRoundTrip(t *testing.T) {
	events := snapshotTrace(t)
	cuts := []int{0, 1, len(events) / 3, len(events) / 2, len(events) - 1, len(events)}
	for _, k := range cuts {
		orig := NewStream(Options{})
		for _, e := range events[:k] {
			orig.Feed(e)
		}
		blob, err := orig.MarshalBinary()
		if err != nil {
			t.Fatalf("cut %d: MarshalBinary: %v", k, err)
		}
		restored, err := RestoreStream(blob, Options{})
		if err != nil {
			t.Fatalf("cut %d: RestoreStream: %v", k, err)
		}
		if restored.Events() != int64(k) {
			t.Fatalf("cut %d: restored.Events() = %d", k, restored.Events())
		}
		for _, e := range events[k:] {
			orig.Feed(e)
			restored.Feed(e)
		}
		got := restored.Finish()
		want := orig.Finish()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restored Finish differs from uninterrupted Finish", k)
		}
	}
}

// TestEncodedSizeAcrossCheckpoints cuts a short trace at every point:
// the restored stream reports, at the cut, the size of the prefix a
// version-1 Writer writes, and after the rest, the size of the whole
// trace.
func TestEncodedSizeAcrossCheckpoints(t *testing.T) {
	events := snapshotTrace(t)[:300]
	sizes := make([]int64, len(events)+1) // written length of events[:k]
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for k := 0; ; k++ {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		sizes[k] = int64(buf.Len())
		if k == len(events) {
			break
		}
		if err := w.Write(events[k]); err != nil {
			t.Fatal(err)
		}
	}
	for k := range sizes {
		s := NewStream(Options{})
		for _, e := range events[:k] {
			s.Feed(e)
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("cut %d: MarshalBinary: %v", k, err)
		}
		restored, err := RestoreStream(blob, Options{})
		if err != nil {
			t.Fatalf("cut %d: RestoreStream: %v", k, err)
		}
		if got := restored.Snapshot().Overall.EncodedSize; got != sizes[k] {
			t.Fatalf("cut %d: restored EncodedSize = %d, Writer wrote %d", k, got, sizes[k])
		}
		for _, e := range events[k:] {
			restored.Feed(e)
		}
		if got := restored.Finish().Overall.EncodedSize; got != sizes[len(events)] {
			t.Fatalf("cut %d: finished EncodedSize = %d, Writer wrote %d", k, got, sizes[len(events)])
		}
	}
}

// TestRestoreStreamRefusesVersion1: testdata/stream-v1.bin was written
// by the version-1 format, which stored a whole encoder position where
// version 2 stores two varints. It is refused with the version error,
// never misread.
func TestRestoreStreamRefusesVersion1(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "stream-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreStream(blob, Options{})
	if err == nil || !strings.Contains(err.Error(), "stream state version 1, want 2") {
		t.Fatalf("RestoreStream(version-1 blob) = %v, want the version error", err)
	}
}

// TestSizeZeroAllocs: after warm-up, sizing an event's record allocates
// nothing.
func TestSizeZeroAllocs(t *testing.T) {
	events := snapshotTrace(t)
	s := NewStream(Options{})
	size := func() {
		for _, e := range events {
			s.size(e)
		}
	}
	size() // warm-up: the record buffer
	if avg := testing.AllocsPerRun(5, size); avg != 0 {
		t.Errorf("%v allocs per %d-event pass, want 0", avg, len(events))
	}
}

// TestStreamCheckpointDeterministic: the blob is a pure function of
// stream state — marshalling twice yields identical bytes, and a
// restored stream re-marshals to the same blob.
func TestStreamCheckpointDeterministic(t *testing.T) {
	events := snapshotTrace(t)
	s := NewStream(Options{})
	for _, e := range events[:len(events)/2] {
		s.Feed(e)
	}
	a, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("second MarshalBinary: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two marshals of the same stream differ")
	}
	restored, err := RestoreStream(a, Options{})
	if err != nil {
		t.Fatalf("RestoreStream: %v", err)
	}
	c, err := restored.MarshalBinary()
	if err != nil {
		t.Fatalf("restored MarshalBinary: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("restored stream marshals differently from the original")
	}
}

// TestStreamCheckpointDoesNotDisturb: a stream checkpointed mid-run
// finishes with exactly the result of one that never was.
func TestStreamCheckpointDoesNotDisturb(t *testing.T) {
	events := snapshotTrace(t)
	plain := NewStream(Options{})
	ckpt := NewStream(Options{})
	for i, e := range events {
		plain.Feed(e)
		ckpt.Feed(e)
		if i%997 == 0 {
			if _, err := ckpt.MarshalBinary(); err != nil {
				t.Fatalf("MarshalBinary at %d: %v", i, err)
			}
		}
	}
	if !reflect.DeepEqual(ckpt.Finish(), plain.Finish()) {
		t.Fatalf("Finish after checkpoints differs from undisturbed Finish")
	}
}

// TestStreamCheckpointFinished: a finished stream refuses to checkpoint.
func TestStreamCheckpointFinished(t *testing.T) {
	s := NewStream(Options{})
	s.Finish()
	if _, err := s.MarshalBinary(); err != ErrFinished {
		t.Fatalf("MarshalBinary on finished stream: err = %v, want ErrFinished", err)
	}
}

// TestRestoreStreamOptionsMismatch: restoring under different interval
// options is detected, not silently mis-attributed.
func TestRestoreStreamOptionsMismatch(t *testing.T) {
	s := NewStream(Options{})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if _, err := RestoreStream(blob, Options{LongInterval: 7 * trace.Minute}); err == nil {
		t.Fatalf("RestoreStream with mismatched options succeeded")
	}
}

// TestRestoreStreamCorrupt: truncations and bit flips error out, never
// panic. (FuzzRestoreStream explores this space further.)
func TestRestoreStreamCorrupt(t *testing.T) {
	events := snapshotTrace(t)
	s := NewStream(Options{})
	for _, e := range events[:2000] {
		s.Feed(e)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	for cut := 0; cut < len(blob); cut += 37 {
		if _, err := RestoreStream(blob[:cut], Options{}); err == nil {
			t.Fatalf("RestoreStream accepted a %d-byte truncation of a %d-byte blob", cut, len(blob))
		}
	}
	if _, err := RestoreStream(nil, Options{}); err == nil {
		t.Fatalf("RestoreStream accepted nil")
	}
}

// FuzzRestoreStream: RestoreStream must never panic, whatever the bytes.
func FuzzRestoreStream(f *testing.F) {
	s := NewStream(Options{})
	for i := 0; i < 200; i++ {
		tm := trace.Time(i * 50)
		s.Feed(trace.Event{Time: tm, Kind: trace.KindOpen, OpenID: trace.OpenID(i), File: trace.FileID(i % 17), User: trace.UserID(i % 5), Mode: trace.ReadOnly, Size: 512})
		s.Feed(trace.Event{Time: tm + 10, Kind: trace.KindSeek, OpenID: trace.OpenID(i), File: trace.FileID(i % 17), User: trace.UserID(i % 5), OldPos: 0, NewPos: 128})
		s.Feed(trace.Event{Time: tm + 20, Kind: trace.KindClose, OpenID: trace.OpenID(i), File: trace.FileID(i % 17), User: trace.UserID(i % 5), Size: 512, NewPos: 512})
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		f.Fatalf("MarshalBinary: %v", err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := RestoreStream(data, Options{})
		if err == nil && st == nil {
			t.Fatalf("nil stream without error")
		}
	})
}
