package trace

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randomEvent produces a structurally valid event of a random kind. It is
// shared by the round-trip property tests.
func randomEvent(rng *rand.Rand, t Time) Event {
	e := Event{Time: t, Kind: Kind(rng.Intn(NumKinds) + 1)}
	switch e.Kind {
	case KindCreate, KindOpen:
		e.OpenID = OpenID(rng.Int63n(1 << 40))
		e.File = FileID(rng.Int63n(1 << 40))
		e.User = UserID(rng.Int31n(1 << 20))
		e.Mode = Mode(rng.Intn(3))
		if e.Kind == KindOpen {
			e.Size = rng.Int63n(1 << 30)
		}
	case KindClose:
		e.OpenID = OpenID(rng.Int63n(1 << 40))
		e.NewPos = rng.Int63n(1 << 30)
	case KindSeek:
		e.OpenID = OpenID(rng.Int63n(1 << 40))
		e.OldPos = rng.Int63n(1 << 30)
		e.NewPos = rng.Int63n(1 << 30)
	case KindUnlink:
		e.File = FileID(rng.Int63n(1 << 40))
	case KindTruncate:
		e.File = FileID(rng.Int63n(1 << 40))
		e.Size = rng.Int63n(1 << 30)
	case KindExec:
		e.File = FileID(rng.Int63n(1 << 40))
		e.User = UserID(rng.Int31n(1 << 20))
		e.Size = rng.Int63n(1 << 30)
	}
	return e
}

func randomTrace(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	t := Time(0)
	for i := range events {
		t += Time(rng.Int63n(5000))
		events[i] = randomEvent(rng, t)
	}
	return events
}

func TestBinaryRoundTrip(t *testing.T) {
	events := randomTrace(1, 500)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != 500 {
		t.Errorf("Count = %d, want 500", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch: got %d events", len(got))
	}
}

// Property: binary round trip preserves arbitrary valid event sequences.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		events := randomTrace(seed, int(n))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range events {
			if w.Write(e) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil {
			return false
		}
		if len(events) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next on empty trace = %v, want io.EOF", err)
	}
}

func TestBadHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":      {},
		"short":      {'B', 'S'},
		"wrongMagic": {'X', 'X', 'X', 'X', 1},
		"wrongVer":   {'B', 'S', 'D', 'T', 99},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewReader(bytes.NewReader(data)); err == nil {
				t.Errorf("accepted bad header")
			}
		})
	}
}

func TestTruncatedStream(t *testing.T) {
	events := randomTrace(3, 50)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Cut mid-record: any cut inside the body must produce an error, not
	// silently truncated output with no error.
	r, err := NewReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	if err == nil {
		t.Errorf("truncated stream read without error")
	}
}

func TestCorruptKindByte(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Event{Kind: KindUnlink, File: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[5] = 200 // corrupt the kind byte of the first record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Errorf("corrupt kind accepted")
	}
}

func TestWriteInvalidKind(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Event{Kind: KindInvalid}); err == nil {
		t.Errorf("invalid kind accepted by writer")
	}
}

func TestTextRoundTrip(t *testing.T) {
	events := randomTrace(5, 200)
	var buf bytes.Buffer
	for _, e := range events {
		buf.WriteString(e.String() + "\n")
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("text round trip mismatch")
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n100 unlink 7\n   \n200 close 3 4096\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Time: 100, Kind: KindUnlink, File: 7},
		{Time: 200, Kind: KindClose, OpenID: 3, NewPos: 4096},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParseEventErrors(t *testing.T) {
	bad := []string{
		"",
		"100",
		"abc open 1 2 3 r 0",
		"100 frobnicate 1",
		"100 open 1 2 3 q 0",    // bad mode
		"100 open 1 2 3 r",      // missing size
		"100 seek 1 2",          // missing newpos
		"100 close x 4",         // bad openid
		"100 unlink",            // missing file
		"100 truncate 5",        // missing length
		"100 execve 5 2",        // missing size
		"100 open 1 2 3 r 0 99", // extra field
	}
	for _, line := range bad {
		if _, err := ParseEvent(line); err == nil {
			t.Errorf("ParseEvent(%q) accepted", line)
		}
	}
}

func TestEventStringParses(t *testing.T) {
	events := randomTrace(9, 100)
	for _, e := range events {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("String/Parse mismatch: %v != %v", got, e)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	events := randomTrace(11, 300)
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := WriteFile(path, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("file round trip mismatch")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Errorf("missing file read without error")
	}
}

func TestCounts(t *testing.T) {
	var c Counts
	c.Add(Event{Kind: KindOpen})
	c.Add(Event{Kind: KindOpen})
	c.Add(Event{Kind: KindClose})
	c.Add(Event{Kind: KindUnlink})
	if c.Total != 4 {
		t.Errorf("Total = %d, want 4", c.Total)
	}
	if c.ByKind[KindOpen] != 2 {
		t.Errorf("open count = %d, want 2", c.ByKind[KindOpen])
	}
	if got := c.Fraction(KindOpen); got != 0.5 {
		t.Errorf("Fraction(open) = %v, want 0.5", got)
	}
	var empty Counts
	if empty.Fraction(KindOpen) != 0 {
		t.Errorf("empty Fraction should be 0")
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if KindExec.String() != "execve" || KindCreate.String() != "create" {
		t.Errorf("kind names wrong: %v %v", KindExec, KindCreate)
	}
	if Kind(99).String() == "" {
		t.Errorf("unknown kind should still format")
	}
	if ReadWrite.String() != "read-write" {
		t.Errorf("mode name wrong: %v", ReadWrite)
	}
	if !ReadOnly.CanRead() || ReadOnly.CanWrite() {
		t.Errorf("ReadOnly capabilities wrong")
	}
	if WriteOnly.CanRead() || !WriteOnly.CanWrite() {
		t.Errorf("WriteOnly capabilities wrong")
	}
	if !ReadWrite.CanRead() || !ReadWrite.CanWrite() {
		t.Errorf("ReadWrite capabilities wrong")
	}
}

func TestTimeHelpers(t *testing.T) {
	if (2 * Second).Seconds() != 2 {
		t.Errorf("Seconds wrong")
	}
	if Minute != 60*Second || Hour != 60*Minute {
		t.Errorf("unit constants wrong")
	}
	if (1500 * Millisecond).String() != "1.5s" {
		t.Errorf("String = %q", (1500 * Millisecond).String())
	}
	if (20 * Minute).String() != "20m0s" {
		t.Errorf("String = %q", (20 * Minute).String())
	}
}

func TestValidatorCleanStream(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: KindCreate, OpenID: 1, File: 10, User: 1, Mode: WriteOnly},
		{Time: 10, Kind: KindClose, OpenID: 1, NewPos: 4096},
		{Time: 20, Kind: KindOpen, OpenID: 2, File: 10, User: 1, Mode: ReadOnly, Size: 4096},
		{Time: 25, Kind: KindSeek, OpenID: 2, OldPos: 0, NewPos: 1024},
		{Time: 30, Kind: KindClose, OpenID: 2, NewPos: 4096},
		{Time: 40, Kind: KindUnlink, File: 10},
	}
	errs, unclosed := Validate(events)
	if len(errs) != 0 {
		t.Fatalf("clean stream got errors: %v", errs)
	}
	if unclosed != 0 {
		t.Errorf("unclosed = %d, want 0", unclosed)
	}
}

func TestValidatorCatchesErrors(t *testing.T) {
	cases := map[string][]Event{
		"timeBackwards": {
			{Time: 100, Kind: KindUnlink, File: 1},
			{Time: 50, Kind: KindUnlink, File: 2},
		},
		"closeUnknown": {
			{Time: 0, Kind: KindClose, OpenID: 9, NewPos: 0},
		},
		"seekUnknown": {
			{Time: 0, Kind: KindSeek, OpenID: 9, OldPos: 0, NewPos: 10},
		},
		"openIDReuse": {
			{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly},
			{Time: 1, Kind: KindOpen, OpenID: 1, File: 2, Mode: ReadOnly},
		},
		"createNonzeroSize": {
			{Time: 0, Kind: KindCreate, OpenID: 1, File: 1, Mode: WriteOnly, Size: 5},
		},
		"closeBeforePos": {
			{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 100},
			{Time: 1, Kind: KindSeek, OpenID: 1, OldPos: 50, NewPos: 80},
			{Time: 2, Kind: KindClose, OpenID: 1, NewPos: 10},
		},
		"seekBackwardOldPos": {
			{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 100},
			{Time: 1, Kind: KindSeek, OpenID: 1, OldPos: 0, NewPos: 80},
			{Time: 2, Kind: KindSeek, OpenID: 1, OldPos: 40, NewPos: 90},
		},
		"negativeTruncate": {
			{Time: 0, Kind: KindTruncate, File: 1, Size: -1},
		},
		"invalidKind": {
			{Time: 0, Kind: Kind(99)},
		},
		"badMode": {
			{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: Mode(7)},
		},
	}
	for name, events := range cases {
		t.Run(name, func(t *testing.T) {
			errs, _ := Validate(events)
			if len(errs) == 0 {
				t.Errorf("validator missed %s", name)
			}
		})
	}
}

func TestValidatorUnclosed(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly},
		{Time: 1, Kind: KindOpen, OpenID: 2, File: 2, Mode: ReadOnly},
		{Time: 2, Kind: KindClose, OpenID: 1, NewPos: 0},
	}
	errs, unclosed := Validate(events)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if unclosed != 1 {
		t.Errorf("unclosed = %d, want 1", unclosed)
	}
}

func TestValidatorErrorCap(t *testing.T) {
	v := NewValidator(3)
	for i := 0; i < 10; i++ {
		v.Check(Event{Time: 0, Kind: KindClose, OpenID: OpenID(i)})
	}
	if len(v.Errs()) != 3 {
		t.Errorf("error cap not applied: %d errors", len(v.Errs()))
	}
}

// TestValidatorFirstBad: the first failing event is reported verbatim
// and stays pinned while later events also fail.
func TestValidatorFirstBad(t *testing.T) {
	v := NewValidator(1)
	good := Event{Time: 0, Kind: KindOpen, OpenID: 1, File: 9, Mode: ReadOnly, Size: 64}
	bad := Event{Time: 1, Kind: KindClose, OpenID: 77, NewPos: 123}
	v.Check(good)
	if v.FirstBad() != nil {
		t.Fatalf("FirstBad set on a clean prefix: %v", v.FirstBad())
	}
	v.Check(bad)
	v.Check(Event{Time: 2, Kind: KindSeek, OpenID: 88}) // also bad, beyond the cap
	if fb := v.FirstBad(); fb == nil || *fb != bad {
		t.Fatalf("FirstBad = %v, want %v", fb, bad)
	}
}

func TestValidatorStats(t *testing.T) {
	v := NewValidator(0)
	events := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 10},
		{Time: 1, Kind: KindSeek, OpenID: 1, OldPos: 0, NewPos: 5},
		{Time: 2, Kind: KindClose, OpenID: 1, NewPos: 10},
		{Time: 3, Kind: KindUnlink, File: 1},
		{Time: 4, Kind: KindUnlink, File: 2},
		{Time: 5, Kind: Kind(99)}, // invalid, still counted in Total
	}
	for _, e := range events {
		v.Check(e)
	}
	c := v.Stats()
	if c.Total != int64(len(events)) {
		t.Fatalf("Total = %d, want %d", c.Total, len(events))
	}
	if c.ByKind[KindUnlink] != 2 || c.ByKind[KindOpen] != 1 || c.ByKind[KindSeek] != 1 || c.ByKind[KindClose] != 1 {
		t.Fatalf("per-kind counts wrong: %+v", c.ByKind)
	}
}
