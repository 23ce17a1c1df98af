package trace

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestMergeEmpty(t *testing.T) {
	if got := Merge(); got != nil {
		t.Errorf("Merge() = %v", got)
	}
	if got := Merge(nil, nil); len(got) != 0 {
		t.Errorf("Merge(nil, nil) = %v", got)
	}
}

func TestMergeSingleCopies(t *testing.T) {
	src := []Event{{Time: 1, Kind: KindUnlink, File: 7}}
	got := Merge(src)
	if len(got) != 1 || got[0] != src[0] {
		t.Fatalf("single-source merge altered events: %v", got)
	}
	got[0].File = 99
	if src[0].File != 7 {
		t.Errorf("single-source merge aliased the input")
	}
}

func TestMergeOrderAndRemap(t *testing.T) {
	a := []Event{
		{Time: 10, Kind: KindOpen, OpenID: 1, File: 5, User: 2, Mode: ReadOnly, Size: 100},
		{Time: 30, Kind: KindClose, OpenID: 1, NewPos: 100},
	}
	b := []Event{
		{Time: 20, Kind: KindOpen, OpenID: 1, File: 5, User: 2, Mode: WriteOnly},
		{Time: 40, Kind: KindClose, OpenID: 1, NewPos: 50},
	}
	got := Merge(a, b)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	times := []Time{got[0].Time, got[1].Time, got[2].Time, got[3].Time}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Errorf("merged times not sorted: %v", times)
	}
	// Open ids and file ids from different sources must differ even
	// though the originals were equal.
	if got[0].OpenID == got[1].OpenID {
		t.Errorf("open ids collide after merge")
	}
	if got[0].File == got[1].File {
		t.Errorf("file ids collide after merge")
	}
	if got[0].User == got[1].User {
		t.Errorf("user ids collide after merge")
	}
	// The close events pair with their remapped opens.
	if got[2].OpenID != got[0].OpenID || got[3].OpenID != got[1].OpenID {
		t.Errorf("close events lost their opens: %+v", got)
	}
}

func TestMergedTraceValidates(t *testing.T) {
	a := randomValidTrace(1)
	b := randomValidTrace(2)
	c := randomValidTrace(3)
	merged := Merge(a, b, c)
	if len(merged) != len(a)+len(b)+len(c) {
		t.Fatalf("merged length %d != %d", len(merged), len(a)+len(b)+len(c))
	}
	errs, _ := Validate(merged)
	for _, err := range errs {
		t.Errorf("validator: %v", err)
	}
}

// randomValidTrace builds a small structurally valid trace: open/close
// pairs with occasional seeks and unlinks.
func randomValidTrace(seed int64) []Event {
	var events []Event
	tm := Time(seed * 7)
	openID := OpenID(1)
	for i := 0; i < 50; i++ {
		f := FileID(i%7 + 1)
		size := int64(i * 100)
		events = append(events, Event{Time: tm, Kind: KindOpen, OpenID: openID, File: f, User: UserID(seed), Mode: ReadOnly, Size: size})
		tm += Time(10 + seed)
		if i%3 == 0 {
			events = append(events, Event{Time: tm, Kind: KindSeek, OpenID: openID, OldPos: 0, NewPos: size / 2})
			tm += 5
		}
		events = append(events, Event{Time: tm, Kind: KindClose, OpenID: openID, NewPos: size})
		tm += Time(20 + seed*3)
		openID++
		if i%10 == 9 {
			events = append(events, Event{Time: tm, Kind: KindUnlink, File: f})
			tm += 3
		}
	}
	return events
}

// Property: merging preserves every source event up to identifier
// remapping — counts by kind and total bytes-in-size fields survive.
func TestMergePreservesContent(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomValidTrace(seedA%50 + 1)
		b := randomValidTrace(seedB%50 + 1)
		merged := Merge(a, b)
		var want, got Counts
		var wantSize, gotSize int64
		for _, e := range append(append([]Event{}, a...), b...) {
			want.Add(e)
			wantSize += e.Size
		}
		for _, e := range merged {
			got.Add(e)
			gotSize += e.Size
		}
		return want == got && wantSize == gotSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWindow(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 100},
		{Time: 50, Kind: KindSeek, OpenID: 1, OldPos: 0, NewPos: 10},
		{Time: 150, Kind: KindSeek, OpenID: 1, OldPos: 20, NewPos: 30}, // open outside window
		{Time: 160, Kind: KindClose, OpenID: 1, NewPos: 100},           // ditto
		{Time: 170, Kind: KindOpen, OpenID: 2, File: 2, Mode: ReadOnly, Size: 50},
		{Time: 180, Kind: KindClose, OpenID: 2, NewPos: 50},
		{Time: 250, Kind: KindUnlink, File: 2},
	}
	window := func(from, to Time) []Event {
		out, err := ReadSource(WindowSource(NewSliceSource(events), from, to))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := window(100, 200)
	// The dangling seek/close of open 1 are dropped; open 2's pair stays
	// and is rebased.
	want := []Event{
		{Time: 70, Kind: KindOpen, OpenID: 2, File: 2, Mode: ReadOnly, Size: 50},
		{Time: 80, Kind: KindClose, OpenID: 2, NewPos: 50},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Window = %+v, want %+v", got, want)
	}
	// A window keeps standalone events.
	got = window(200, 300)
	if len(got) != 1 || got[0].Kind != KindUnlink || got[0].Time != 50 {
		t.Fatalf("unlink window = %+v", got)
	}
	// Degenerate windows are empty.
	if len(window(100, 100)) != 0 || len(window(200, 100)) != 0 {
		t.Errorf("degenerate window not empty")
	}
}

func TestWindowedTraceValidates(t *testing.T) {
	full := randomValidTrace(4)
	mid := full[len(full)/2].Time
	win, err := ReadSource(WindowSource(NewSliceSource(full), mid, mid+10_000))
	if err != nil {
		t.Fatal(err)
	}
	errs, _ := Validate(win)
	for _, err := range errs {
		t.Errorf("validator: %v", err)
	}
}
