package cachesim

import (
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// The lane engine's equivalence tests: every configuration of a grouped
// replay must see exactly what a replay of that configuration alone
// sees — the same Result and the same observer callback sequence.

// laneVariants returns every replacement policy under the four paper
// write policies, plain and with each of SimulatePaging, NoPurge and
// BillAtStart, at one geometry: nine residency groups per variant.
func laneVariants(blockSize, cacheSize int64) []Config {
	var cfgs []Config
	for v := 0; v < 4; v++ {
		for _, rp := range AllReplacements() {
			for _, p := range PaperPolicies() {
				cfgs = append(cfgs, Config{
					BlockSize: blockSize, CacheSize: cacheSize,
					Write: p.Write, FlushInterval: p.Interval,
					Replacement: rp, Seed: 5,
					SimulatePaging: v == 1,
					NoPurge:        v == 2,
					BillAtStart:    v == 3,
				})
			}
		}
	}
	return cfgs
}

// checkAgainstSolo replays cfgs grouped, then each alone, and demands
// identical Results and identical per-configuration callback sequences.
// Observed grouped replays run one residency group per call, so at most
// one group's recordings are held at a time.
func checkAgainstSolo(t *testing.T, tape *xfer.Tape, cfgs []Config) {
	t.Helper()
	grouped, err := MultiSimulate(tape, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range laneGroups(cfgs) {
		sub := make([]Config, len(g))
		for k, i := range g {
			sub[k] = cfgs[i]
		}
		recs := make([]*recorder, len(g))
		observed, err := MultiSimulateObserved(tape, sub, func(k int) Observer {
			recs[k] = &recorder{}
			return recs[k]
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range g {
			solo := &recorder{}
			want, err := SimulateTapeObserved(tape, cfgs[i], solo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(grouped[i], want) {
				t.Fatalf("config %d (%+v): grouped %+v != solo %+v", i, cfgs[i], grouped[i], want)
			}
			if !reflect.DeepEqual(observed[k], want) {
				t.Fatalf("config %d (%+v): observed grouped result differs from solo", i, cfgs[i])
			}
			checkLifecycle(t, cfgs[i], solo.events, want.DirtyAtEnd)
			if !reflect.DeepEqual(recs[k].events, solo.events) {
				t.Fatalf("config %d (%+v): grouped lane saw %d callbacks, solo %d, or a different sequence",
					i, cfgs[i], len(recs[k].events), len(solo.events))
			}
		}
	}
}

// checkLifecycle holds a callback sequence to the Observer contract:
// per block, BlockDirtied and BlockCleaned alternate, starting dirtied,
// and the blocks left dirty number the Result's DirtyAtEnd. Grouped and
// solo replays share one engine, so this law is what catches an engine
// fault that would show identically in both.
func checkLifecycle(t *testing.T, cfg Config, events []obsEvent, dirtyAtEnd int64) {
	t.Helper()
	dirty := make(map[int32]bool)
	for _, e := range events {
		if e.clean != dirty[e.id] {
			t.Fatalf("config %+v: block %d: clean=%v callback out of turn", cfg, e.id, e.clean)
		}
		if e.clean {
			delete(dirty, e.id)
		} else {
			dirty[e.id] = true
		}
	}
	if int64(len(dirty)) != dirtyAtEnd {
		t.Fatalf("config %+v: callbacks leave %d blocks dirty, Result says %d", cfg, len(dirty), dirtyAtEnd)
	}
}

// TestLanesMatchSoloReplays is the lane engine's differential oracle:
// all nine replacements under the four paper write policies, with and
// without each of SimulatePaging, NoPurge and BillAtStart, replayed as
// residency groups, against each configuration replayed alone.
func TestLanesMatchSoloReplays(t *testing.T) {
	t.Run("A5", func(t *testing.T) {
		cfgs := laneVariants(4096, 1<<20)
		if got, want := len(laneGroups(cfgs)), len(cfgs)/4; got != want {
			t.Fatalf("%d configs formed %d residency groups, want %d", len(cfgs), got, want)
		}
		checkAgainstSolo(t, profileTape(t, "A5"), cfgs)
	})
	t.Run("random", func(t *testing.T) {
		tape := mustTape(t, randomTrace(21, 800))
		checkAgainstSolo(t, tape, laneVariants(4096, 32<<10))
		checkAgainstSolo(t, tape, laneVariants(1024, 8<<10))
	})
}

// TestLaneGroupSplitsAtMaskWidth runs 70 flush intervals at one
// geometry: more configurations than a dirty mask has bits, so the
// group splits after 64 lanes.
func TestLaneGroupSplitsAtMaskWidth(t *testing.T) {
	cfgs := make([]Config, 70)
	for i := range cfgs {
		cfgs[i] = Config{BlockSize: 4096, CacheSize: 32 << 10, Write: FlushBack,
			FlushInterval: trace.Time(i+1) * 7 * trace.Second}
	}
	groups := laneGroups(cfgs)
	if len(groups) != 2 || len(groups[0]) != maxLanes || len(groups[1]) != 70-maxLanes {
		t.Fatalf("70 lanes grouped as %d groups (first %d lanes), want 64 + 6", len(groups), len(groups[0]))
	}
	checkAgainstSolo(t, mustTape(t, randomTrace(4, 600)), cfgs)
}

// TestLaneGroupDuplicateConfigs gives one call the same configuration
// several times: each copy is its own lane with its own Result.
func TestLaneGroupDuplicateConfigs(t *testing.T) {
	fb := Config{BlockSize: 4096, CacheSize: 16 << 10, Write: FlushBack, FlushInterval: 30 * trace.Second}
	dw := Config{BlockSize: 4096, CacheSize: 16 << 10, Write: DelayedWrite}
	cfgs := []Config{fb, dw, fb, fb, dw}
	tape := mustTape(t, randomTrace(8, 500))
	checkAgainstSolo(t, tape, cfgs)
	rs, err := MultiSimulate(tape, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] == rs[2] || rs[0] == rs[3] || rs[1] == rs[4] {
		t.Fatal("duplicate configurations share a Result")
	}
}

// TestLaneResultsOwnResidency mutates one lane's Residency and demands
// that no other Result of the same replay changes.
func TestLaneResultsOwnResidency(t *testing.T) {
	var cfgs []Config
	for _, p := range PaperPolicies() {
		cfgs = append(cfgs, Config{BlockSize: 4096, CacheSize: 16 << 10, Write: p.Write, FlushInterval: p.Interval})
	}
	rs, err := MultiSimulate(mustTape(t, randomTrace(12, 500)), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[0].Residency) == 0 {
		t.Fatal("no residency recorded")
	}
	want := append(rs[1].Residency[:0:0], rs[1].Residency...)
	for i := range rs[0].Residency {
		rs[0].Residency[i].X = -1
		rs[0].Residency[i].Fraction = -1
	}
	for _, r := range rs[1:] {
		if !reflect.DeepEqual(r.Residency, want) {
			t.Fatalf("mutating one Result's Residency changed another's (%v)", r.Config.Write)
		}
	}
}

// FuzzLaneGroups replays a random small trace into a random set of
// configurations — mixed geometries, every write policy, duplicates —
// and checks each against its replay alone.
func FuzzLaneGroups(f *testing.F) {
	f.Add(int64(1), uint16(200), []byte{0, 0, 0, 1, 0, 2, 0, 3})
	f.Add(int64(2), uint16(300), []byte{9, 4, 9, 4, 18, 5, 27, 7, 200, 6})
	f.Add(int64(3), uint16(50), []byte{255, 255, 128, 3, 64, 2})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, picks []byte) {
		if len(picks) > 2*80 {
			picks = picks[:2*80]
		}
		reps := AllReplacements()
		cacheSizes := []int64{4 << 10, 16 << 10, 64 << 10}
		policies := []PolicySpec{
			{Write: WriteThrough},
			{Write: FlushBack, Interval: trace.Second},
			{Write: FlushBack, Interval: 30 * trace.Second},
			{Write: FlushBack, Interval: 5 * trace.Minute},
			{Write: DelayedWrite},
		}
		var cfgs []Config
		for k := 0; k+1 < len(picks); k += 2 {
			geo, pol := int(picks[k]), int(picks[k+1])
			p := policies[pol%len(policies)]
			cfgs = append(cfgs, Config{
				BlockSize:      1024 << (geo / 27 % 3),
				CacheSize:      cacheSizes[geo/len(reps)%len(cacheSizes)],
				Replacement:    reps[geo%len(reps)],
				Seed:           seed,
				Write:          p.Write,
				FlushInterval:  p.Interval,
				SimulatePaging: pol&8 != 0,
				NoPurge:        pol&16 != 0,
				BillAtStart:    pol&32 != 0,
			})
		}
		if len(cfgs) == 0 {
			return
		}
		checkAgainstSolo(t, mustTape(t, randomTrace(seed, int(n%400)+1)), cfgs)
	})
}

// BenchmarkPolicySweepTape measures the Table VI sweep alone: six cache
// sizes under the four paper write policies, on a tape built before the
// timer starts.
func BenchmarkPolicySweepTape(b *testing.B) {
	tape := profileTape(b, "A5")
	sizes, pols := PaperCacheSizes(), PaperPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PolicySweepTape(tape, 4096, sizes, pols); err != nil {
			b.Fatal(err)
		}
	}
}
