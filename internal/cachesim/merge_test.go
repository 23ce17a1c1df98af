package cachesim

import (
	"slices"
	"sort"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// stableSortOps is the order mergeOps must reproduce: the concatenated
// streams, stably sorted by time.
func stableSortOps(streams [][]serverOp) []serverOp {
	var all []serverOp
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].time < all[j].time })
	return all
}

// firstDisorder returns the first index whose op is earlier than its
// predecessor, or -1.
func firstDisorder(ops []serverOp) int {
	for i := 1; i < len(ops); i++ {
		if ops[i].time < ops[i-1].time {
			return i
		}
	}
	return -1
}

// disklessTapes builds the three machines' tapes at seed 1, as fsreport's
// diskless section replays them.
func disklessTapes(t *testing.T) []*xfer.Tape {
	t.Helper()
	var tapes []*xfer.Tape
	for _, name := range []string{"A5", "E3", "C4"} {
		tapes = append(tapes, profileTape(t, name))
	}
	return tapes
}

// profileTape builds one machine profile's seed-1 tape: 8 hours, 2 in
// -short mode.
func profileTape(tb testing.TB, name string) *xfer.Tape {
	tb.Helper()
	dur := 8 * trace.Hour
	if testing.Short() {
		dur = 2 * trace.Hour
	}
	b := xfer.NewTapeBuilder()
	if _, err := workload.GenerateStream(workload.Config{Profile: name, Seed: 1, Duration: dur},
		func(e trace.Event) error { b.Add(e); return nil }); err != nil {
		tb.Fatal(err)
	}
	tape, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return tape
}

// TestClientStreamsTimeOrdered pins mergePasses's premise on the real
// machine traces: at every diskless client cache size, each client's
// server traffic is already in time order, and the merge equals the
// stable sort it replaced.
func TestClientStreamsTimeOrdered(t *testing.T) {
	tapes := disklessTapes(t)
	for _, cc := range []int64{128 << 10, 512 << 10, 1 << 20, 2 << 20} {
		cfg := Config{BlockSize: 4096, CacheSize: cc, Write: WriteThrough}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		passes := make([]*clientPass, len(tapes))
		streams := make([][]serverOp, len(tapes))
		for m, tape := range tapes {
			passes[m] = runClient(tape, resolvedFor(tape, cfg.BlockSize), cfg, 0, 0)
			streams[m] = passes[m].ops
			if i := firstDisorder(passes[m].ops); i >= 0 {
				t.Errorf("client cache %d, machine %d: op %d at %v precedes op %d at %v",
					cc, m, i, passes[m].ops[i].time, i-1, passes[m].ops[i-1].time)
			}
		}
		if !slices.Equal(mergePasses(passes), stableSortOps(streams)) {
			t.Errorf("client cache %d: merged traffic differs from the stable sort", cc)
		}
	}
}

// TestTierStreamsTimeOrdered pins the premise that lets a shared tier's
// traffic below go unsorted: replaying time-ordered input, every tier
// emits its misses, write-backs, flushes and forwarded purges in time
// order, under each write policy.
func TestTierStreamsTimeOrdered(t *testing.T) {
	inputs := map[string][]*xfer.Tape{
		"diskless": disklessTapes(t),
		"random":   hierarchyMachines(t),
	}
	tiers := []Tier{
		{Name: "write-through", Size: 1 << 20, Replacement: LRU, Write: WriteThrough},
		{Name: "delayed-write", Size: 1 << 20, Replacement: ARC, Seed: 1, Write: DelayedWrite},
		{Name: "flush-back", Size: 1 << 20, Replacement: LRU, Write: FlushBack, FlushInterval: 30 * trace.Second},
	}
	for name, tapes := range inputs {
		for _, tier := range tiers {
			cfg := HierarchyConfig{BlockSize: 4096, Tiers: []Tier{
				{Name: "client", Size: 128 << 10, Replacement: LRU, Write: WriteThrough},
				tier,
				{Name: "disk"},
			}}
			tierCfgs, err := cfg.tierConfigs()
			if err != nil {
				t.Fatal(err)
			}
			machineRes := make([]*resolved, len(tapes))
			blockBase := make([]int32, len(tapes))
			passes := make([]*clientPass, len(tapes))
			var nBlocks, nFiles int32
			for m, tape := range tapes {
				machineRes[m] = resolvedFor(tape, cfg.BlockSize)
				blockBase[m] = nBlocks
				passes[m] = runClient(tape, machineRes[m], tierCfgs[0], nBlocks, nFiles)
				nBlocks += int32(machineRes[m].nBlocks())
				nFiles += int32(len(machineRes[m].fileBlocks))
			}
			merged := mergeResolved(machineRes, blockBase, cfg.BlockSize, nBlocks, nFiles)
			var next []serverOp
			replayTierOps(mergePasses(passes), merged, tierCfgs[1],
				func(id int32, write bool, at trace.Time) {
					next = append(next, serverOp{time: at, id: id})
				},
				func(fs int32, size int64, at trace.Time) {
					next = append(next, serverOp{time: at, kind: opPurge, fs: fs, size: size})
				})
			if len(next) == 0 {
				t.Errorf("%s/%s: the tier sent nothing below", name, tier.Name)
			}
			if i := firstDisorder(next); i >= 0 {
				t.Errorf("%s/%s: op %d at %v precedes op %d at %v", name, tier.Name, i, next[i].time, i-1, next[i-1].time)
			}
		}
	}
}

// FuzzMergeOps checks the k-way merge against the stable sort it
// replaced. Byte 0 picks the machine count; every following byte b
// appends one op to machine b%k, advancing that machine's clock by
// (b/8)%4 — zero a quarter of the time, so times tie heavily within and
// across machines.
func FuzzMergeOps(f *testing.F) {
	f.Add([]byte{2, 0x00, 0x01, 0x08, 0x09, 0x00, 0x11})
	f.Add([]byte{4, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{3, 0x18, 0x00, 0x01, 0x1a, 0x02, 0x10})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0])%6 + 1
		streams := make([][]serverOp, k)
		clocks := make([]trace.Time, k)
		for i, b := range data[1:] {
			m := int(b) % k
			clocks[m] += trace.Time(b/8) % 4
			// The id records emission order, so any reordering of tied
			// ops shows.
			streams[m] = append(streams[m], serverOp{time: clocks[m], id: int32(i)})
		}
		want := stableSortOps(streams)
		got := mergeOps(streams)
		if !slices.Equal(got, want) {
			t.Fatalf("merge of %d streams differs from the stable sort:\n got %v\nwant %v", k, got, want)
		}
	})
}
