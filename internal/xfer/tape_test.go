package xfer

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"bsdtrace/internal/trace"
)

// tapeTB builds small event streams for tape tests.
type tapeTB struct {
	events []trace.Event
	now    trace.Time
	nextID trace.OpenID
}

func (b *tapeTB) tick() trace.Time {
	b.now += 10 * trace.Millisecond
	return b.now
}

func (b *tapeTB) create(f trace.FileID, n int64) {
	id := b.nextID + 1
	b.nextID = id
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindCreate, OpenID: id, File: f, User: 1, Mode: trace.WriteOnly},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

func (b *tapeTB) read(f trace.FileID, sz int64) {
	id := b.nextID + 1
	b.nextID = id
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: f, User: 1, Mode: trace.ReadOnly, Size: sz},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: sz},
	)
}

func mustTape(t *testing.T, events []trace.Event) *Tape {
	t.Helper()
	tape, err := NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// countKinds tallies a tape's op kinds.
func countKinds(tape *Tape) map[OpKind]int {
	m := make(map[OpKind]int)
	for _, op := range tape.Ops {
		m[op.Kind]++
	}
	return m
}

func TestTapeMatchesScanner(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 10000)
	b.read(1, 10000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindTruncate, File: 1, Size: 4000})
	b.read(1, 4000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindUnlink, File: 1})

	// The tape's transfers must be exactly what a scanner emits, in order.
	var want []Transfer
	sc := NewScanner()
	sc.OnTransfer = func(tr Transfer) { want = append(want, tr) }
	for _, e := range b.events {
		sc.Feed(e)
	}
	sc.Finish()

	tape := mustTape(t, b.events)
	if len(tape.Transfers) != len(want) {
		t.Fatalf("tape has %d transfers, scanner emitted %d", len(tape.Transfers), len(want))
	}
	for i := range want {
		if tape.Transfers[i] != want[i] {
			t.Errorf("transfer %d: tape %+v != scanner %+v", i, tape.Transfers[i], want[i])
		}
	}
	kinds := countKinds(tape)
	// create purges once (overwrite), truncate once, unlink once.
	if kinds[OpPurge] != 3 {
		t.Errorf("want 3 purges, got %d", kinds[OpPurge])
	}
	if kinds[OpTransfer] != len(want) {
		t.Errorf("want %d transfer ops, got %d", kinds[OpTransfer], len(want))
	}
}

// TestTapeSpansChunks: a tape longer than the builder's largest chunk
// comes out of Finish in one piece, in order — every transfer the
// scanner emits, each op pointing at its own transfer.
func TestTapeSpansChunks(t *testing.T) {
	b := &tapeTB{}
	for i := 0; i < maxChunk+maxChunk/2; i++ {
		b.read(trace.FileID(i%97+1), int64(i%5000+1))
	}
	var want []Transfer
	sc := NewScanner()
	sc.OnTransfer = func(tr Transfer) { want = append(want, tr) }
	for _, e := range b.events {
		sc.Feed(e)
	}
	tape := mustTape(t, b.events)
	if !reflect.DeepEqual(tape.Transfers, want) {
		t.Fatalf("tape transfers differ from the scanner's (%d vs %d)", len(tape.Transfers), len(want))
	}
	if len(tape.Slots) != len(want) || len(tape.OldSizes) != len(want) {
		t.Fatalf("%d slots, %d old sizes for %d transfers", len(tape.Slots), len(tape.OldSizes), len(want))
	}
	next := int32(0)
	for i, op := range tape.Ops {
		if op.Kind != OpTransfer {
			continue
		}
		if op.Ref != next || tape.Transfers[op.Ref].Time != op.Time {
			t.Fatalf("op %d replays transfer %d, want %d", i, op.Ref, next)
		}
		next++
	}
	if int(next) != len(want) {
		t.Fatalf("%d transfer ops for %d transfers", next, len(want))
	}
}

// TestTapeSlotTables: files get dense slots in first-appearance order
// (an exec-only file and an unlinked never-opened one included), each
// transfer and purge names its file's slot, and a slot's extent is the
// largest byte end transferred.
func TestTapeSlotTables(t *testing.T) {
	b := &tapeTB{}
	b.create(7, 10000)
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindUnlink, File: 9},
		trace.Event{Time: b.tick(), Kind: trace.KindExec, File: 5, User: 1, Size: 3000})
	b.read(7, 4000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindTruncate, File: 7, Size: 100})
	tape := mustTape(t, b.events)
	if want := []trace.FileID{7, 9, 5}; !reflect.DeepEqual(tape.Files, want) {
		t.Fatalf("Files = %v, want %v", tape.Files, want)
	}
	if want := []int64{10000, 0, 3000}; !reflect.DeepEqual(tape.Extents, want) {
		t.Errorf("Extents = %v, want %v", tape.Extents, want)
	}
	for i, tr := range tape.Transfers {
		if f := tape.Files[tape.Slots[i]]; f != tr.File {
			t.Errorf("transfer %d of file %d in slot of file %d", i, tr.File, f)
		}
	}
	var purged []trace.FileID
	for _, op := range tape.Ops {
		if op.Kind == OpPurge {
			purged = append(purged, tape.Files[op.Ref])
		}
	}
	if want := []trace.FileID{7, 9, 7}; !reflect.DeepEqual(purged, want) {
		t.Errorf("purged files %v, want %v", purged, want)
	}
	if n := unsafe.Sizeof(Op{}); n != 24 {
		t.Errorf("Op is %d bytes, want 24", n)
	}
}

func TestTapeTimesNondecreasing(t *testing.T) {
	b := &tapeTB{}
	for f := trace.FileID(1); f <= 5; f++ {
		b.create(f, 30000)
		b.read(f, 30000)
	}
	tape := mustTape(t, b.events)
	var last trace.Time
	for i, op := range tape.Ops {
		if op.Time < last {
			t.Fatalf("op %d time %v < previous %v", i, op.Time, last)
		}
		last = op.Time
	}
}

func TestTapeAdvanceCollapse(t *testing.T) {
	// Opens produce no transfer or purge; their clock motion must land in
	// OpAdvance ops, and consecutive ones must merge.
	b := &tapeTB{}
	id := trace.OpenID(1)
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: 1, User: 1, Mode: trace.ReadOnly, Size: 5000},
		trace.Event{Time: b.tick(), Kind: trace.KindSeek, OpenID: id, NewPos: 0},
		trace.Event{Time: b.tick(), Kind: trace.KindSeek, OpenID: id, NewPos: 0},
	)
	closeTime := b.tick()
	b.events = append(b.events, trace.Event{Time: closeTime, Kind: trace.KindClose, OpenID: id, NewPos: 5000})

	tape := mustTape(t, b.events)
	// open + seek + seek collapse to one advance; the close emits the
	// transfer. No other ops.
	kinds := countKinds(tape)
	if kinds[OpAdvance] != 1 || kinds[OpTransfer] != 1 || len(tape.Ops) != 2 {
		t.Fatalf("want [advance, transfer], got %v", tape.Ops)
	}
	// The merged advance carries the latest pre-close event time.
	if tape.Ops[0].Time >= closeTime {
		t.Errorf("advance time %v not before close %v", tape.Ops[0].Time, closeTime)
	}
}

func TestTapeOldSizes(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 10000) // transfer 0: write while size 0
	b.read(1, 10000)   // transfer 1: size 10000
	// Reopen for write without create: rewrite first 2000 bytes.
	id := b.nextID + 1
	b.nextID = id
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: 1, User: 1, Mode: trace.WriteOnly, Size: 10000},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: 2000},
	)
	tape := mustTape(t, b.events)
	if len(tape.OldSizes) != len(tape.Transfers) {
		t.Fatalf("OldSizes length %d != Transfers %d", len(tape.OldSizes), len(tape.Transfers))
	}
	want := []int64{0, 10000, 10000}
	for i, w := range want {
		if tape.OldSizes[i] != w {
			t.Errorf("OldSizes[%d] = %d, want %d", i, tape.OldSizes[i], w)
		}
	}
}

func TestTapeExecSynthesis(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 8000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindExec, File: 1, User: 1, Size: 8000})
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindExec, File: 2, User: 1, Size: 0})
	tape := mustTape(t, b.events)
	kinds := countKinds(tape)
	if kinds[OpExec] != 1 {
		t.Fatalf("want 1 exec op (zero-size exec is an advance), got %d", kinds[OpExec])
	}
	for _, op := range tape.Ops {
		if op.Kind != OpExec {
			continue
		}
		tr := tape.Transfers[op.Ref]
		if tr.File != 1 || tr.Offset != 0 || tr.Length != 8000 || tr.Write {
			t.Errorf("exec transfer wrong: %+v", tr)
		}
		if tape.OldSizes[op.Ref] != 8000 {
			t.Errorf("exec OldSizes = %d, want 8000", tape.OldSizes[op.Ref])
		}
	}
}

func TestTapeUnclosed(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 1000)
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: 99, File: 2, User: 1, Mode: trace.ReadOnly, Size: 500})
	tape := mustTape(t, b.events)
	if tape.Unclosed != 1 {
		t.Errorf("Unclosed = %d, want 1", tape.Unclosed)
	}
}

func TestTapeRejectsMalformed(t *testing.T) {
	events := []trace.Event{
		{Time: 1, Kind: trace.KindClose, OpenID: 42, NewPos: 100}, // close of unknown open
	}
	if _, err := NewTape(events); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestTapeMemoSharesBuilds(t *testing.T) {
	tape := &Tape{}
	var builds int
	var mu sync.Mutex
	build := func() any {
		mu.Lock()
		builds++
		mu.Unlock()
		return builds
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := tape.Memo(4096, build); v.(int) != 1 {
				t.Errorf("Memo returned %v, want 1", v)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	if v := tape.Memo(8192, build); v.(int) != 2 {
		t.Errorf("second key returned %v, want 2", v)
	}
}
