package trace

import (
	"reflect"
	"testing"
)

// cleanTrace is a small hand-built trace satisfying every Validator
// invariant, exercising all seven kinds.
func cleanTrace() []Event {
	return []Event{
		{Time: 0, Kind: KindCreate, OpenID: 1, File: 10, User: 5, Mode: WriteOnly},
		{Time: 10, Kind: KindOpen, OpenID: 2, File: 11, User: 5, Mode: ReadOnly, Size: 4096},
		{Time: 20, Kind: KindSeek, OpenID: 2, OldPos: 100, NewPos: 2048},
		{Time: 30, Kind: KindClose, OpenID: 1, NewPos: 512},
		{Time: 40, Kind: KindExec, File: 12, User: 5, Size: 24576},
		{Time: 50, Kind: KindSeek, OpenID: 2, OldPos: 2048, NewPos: 0},
		{Time: 60, Kind: KindClose, OpenID: 2, NewPos: 4096},
		{Time: 70, Kind: KindTruncate, File: 10, Size: 256},
		{Time: 80, Kind: KindUnlink, File: 10},
		{Time: 90, Kind: KindOpen, OpenID: 3, File: 11, User: 6, Mode: ReadWrite, Size: 4096},
		// Left open at the end of the trace, like a live system.
	}
}

// TestRecoverCleanNoOp is the repair half of the round-trip acceptance
// criterion: over an undamaged stream the pass changes nothing.
func TestRecoverCleanNoOp(t *testing.T) {
	in := cleanTrace()
	if errs, _ := Validate(in); len(errs) != 0 {
		t.Fatalf("test fixture is not clean: %v", errs)
	}
	out, stats := recoverSlice(in)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("clean trace changed:\n in: %v\nout: %v", in, out)
	}
	if !stats.Zero() {
		t.Fatalf("clean trace produced repairs: %v", stats)
	}
	if stats.Events != int64(len(in)) || stats.Emitted != int64(len(in)) {
		t.Fatalf("miscounted clean trace: %+v", stats)
	}
}

// TestRecoverAccountingIdentity: over arbitrary (structurally random)
// traces, the budget identity holds and the repaired stream passes the
// Validator with zero errors.
func TestRecoverAccountingIdentity(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := randomTrace(seed, 2000)
		out, stats := recoverSlice(in)
		if stats.Emitted != stats.Events-stats.Dropped+stats.Synthesized {
			t.Fatalf("seed %d: accounting identity broken: %+v", seed, stats)
		}
		if stats.Events != int64(len(in)) || stats.Emitted != int64(len(out)) {
			t.Fatalf("seed %d: counts disagree with slices: %+v (in %d, out %d)",
				seed, stats, len(in), len(out))
		}
		if errs, _ := Validate(out); len(errs) != 0 {
			t.Fatalf("seed %d: repaired trace fails validation: %v", seed, errs[0])
		}
	}
}

// recoverSlice repairs an in-memory trace through a RecoverSource.
func recoverSlice(events []Event) ([]Event, RepairStats) {
	r := NewRecoverSource(NewSliceSource(events))
	out, err := ReadSource(r)
	if err != nil {
		panic(err) // a SliceSource never fails
	}
	return out, r.Stats()
}

func recoverOne(t *testing.T, in []Event) ([]Event, RepairStats) {
	t.Helper()
	out, stats := recoverSlice(in)
	if errs, _ := Validate(out); len(errs) != 0 {
		t.Fatalf("repaired trace fails validation: %v", errs[0])
	}
	return out, stats
}

func TestRecoverSynthesizesCloseOnIDReuse(t *testing.T) {
	in := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 7, File: 1, Mode: ReadOnly, Size: 100},
		{Time: 10, Kind: KindSeek, OpenID: 7, OldPos: 40, NewPos: 60},
		// The close of open 7 was lost; the id comes back.
		{Time: 20, Kind: KindOpen, OpenID: 7, File: 2, Mode: WriteOnly},
		{Time: 30, Kind: KindClose, OpenID: 7, NewPos: 8},
	}
	out, stats := recoverOne(t, in)
	want := []Event{
		in[0], in[1],
		{Time: 20, Kind: KindClose, OpenID: 7, NewPos: 60}, // synthesized at last known position
		in[2], in[3],
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v\nwant %v", out, want)
	}
	if stats.Synthesized != 1 || stats.Dropped != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRecoverDropsUnknownHandles(t *testing.T) {
	in := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 10},
		{Time: 5, Kind: KindClose, OpenID: 99, NewPos: 1234}, // handle never opened
		{Time: 6, Kind: KindSeek, OpenID: 98, OldPos: 0, NewPos: 5},
		{Time: 7, Kind: KindUnlink, File: 77},   // file never introduced
		{Time: 8, Kind: KindTruncate, File: 78}, // file never introduced
		{Time: 9, Kind: KindClose, OpenID: 1, NewPos: 10},
	}
	out, stats := recoverOne(t, in)
	want := []Event{in[0], in[5]}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v\nwant %v", out, want)
	}
	if stats.Dropped != 4 || stats.EstBytesLost != 1234 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRecoverKeepsUnlinkOfSeenFile(t *testing.T) {
	in := []Event{
		{Time: 0, Kind: KindExec, File: 5, Size: 100},
		{Time: 1, Kind: KindUnlink, File: 5},
	}
	out, stats := recoverOne(t, in)
	if !reflect.DeepEqual(out, in) || !stats.Zero() {
		t.Fatalf("out %v, stats %+v", out, stats)
	}
}

func TestRecoverClampsTime(t *testing.T) {
	in := []Event{
		{Time: 1000, Kind: KindExec, File: 1, Size: 1},
		{Time: 400, Kind: KindExec, File: 2, Size: 1},                            // backwards
		{Time: 1000 + 2*DefaultMaxForwardJump, Kind: KindExec, File: 3, Size: 1}, // absurd jump
		{Time: 1100, Kind: KindExec, File: 4, Size: 1},                           // sane again
	}
	out, stats := recoverOne(t, in)
	wantTimes := []Time{1000, 1000, 1000, 1100}
	for i, e := range out {
		if e.Time != wantTimes[i] {
			t.Fatalf("event %d time %v, want %v (out %v)", i, e.Time, wantTimes[i], out)
		}
	}
	if stats.Rewritten != 2 || stats.Dropped != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRecoverFieldRepairs(t *testing.T) {
	in := []Event{
		{Time: 0, Kind: KindCreate, OpenID: 1, File: 1, Mode: Mode(9), Size: 55}, // bad mode, bad size
		{Time: 1, Kind: KindSeek, OpenID: 1, OldPos: -5, NewPos: -6},             // negative positions
		{Time: 2, Kind: KindClose, OpenID: 1, NewPos: -1},                        // close behind position
		{Time: 3, Kind: KindOpen, OpenID: 2, File: 1, Mode: ReadOnly, Size: -10}, // negative size
		{Time: 4, Kind: KindTruncate, File: 1, Size: -3},                         // negative length
		{Time: 5, Kind: KindExec, File: 1, Size: -2},                             // negative size
		{Time: 6, Kind: Kind(0)},                                                 // invalid kind
		{Time: 7, Kind: Kind(200)},                                               // invalid kind
	}
	out, stats := recoverOne(t, in)
	want := []Event{
		{Time: 0, Kind: KindCreate, OpenID: 1, File: 1, Mode: ReadOnly, Size: 0},
		{Time: 1, Kind: KindSeek, OpenID: 1, OldPos: 0, NewPos: 0},
		{Time: 2, Kind: KindClose, OpenID: 1, NewPos: 0},
		{Time: 3, Kind: KindOpen, OpenID: 2, File: 1, Mode: ReadOnly, Size: 0},
		{Time: 4, Kind: KindTruncate, File: 1, Size: 0},
		{Time: 5, Kind: KindExec, File: 1, Size: 0},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v\nwant %v", out, want)
	}
	if stats.Rewritten != 6 || stats.Dropped != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestRecoverSeekRegressionClamp: a duplicated seek replays an old
// position; the repair clamps OldPos up to the tracked position.
func TestRecoverSeekRegressionClamp(t *testing.T) {
	in := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 100},
		{Time: 1, Kind: KindSeek, OpenID: 1, OldPos: 10, NewPos: 50},
		{Time: 2, Kind: KindSeek, OpenID: 1, OldPos: 10, NewPos: 50}, // duplicate
		{Time: 3, Kind: KindClose, OpenID: 1, NewPos: 80},
	}
	out, stats := recoverOne(t, in)
	if out[2].OldPos != 50 {
		t.Fatalf("duplicate seek OldPos = %d, want clamped to 50 (out %v)", out[2].OldPos, out)
	}
	if stats.Rewritten != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}
