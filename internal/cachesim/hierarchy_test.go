package cachesim

import (
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

func hierarchyMachines(t *testing.T) []*xfer.Tape {
	t.Helper()
	return machineTapes(t, randomTrace(5, 400), randomTrace(9, 400), randomTrace(13, 400))
}

// twoLevelPins are TwoLevelResults recorded from the standalone
// two-level simulator that the engine's [client, server, disk] call
// replaced, under each server write policy (flush-back at 30 s): on
// hierarchyMachines with a 256 KB client and 1 MB server cache, and on
// disklessTapes at fsreport's four client sizes with its 8 MB server
// (8 h tapes, or 2 h ones under -short).
var twoLevelPins = []struct {
	set, write     string
	client, server int64
	want           TwoLevelResult
}{
	{"random", "write-through", 256 << 10, 1 << 20, TwoLevelResult{ClientAccesses: 5527, ClientReadMisses: 2380, WriteForwards: 2337, NetworkBlocks: 4717, ServerDiskReads: 2083, ServerDiskWrites: 2337}},
	{"random", "delayed-write", 256 << 10, 1 << 20, TwoLevelResult{ClientAccesses: 5527, ClientReadMisses: 2380, WriteForwards: 2337, NetworkBlocks: 4717, ServerDiskReads: 2083, ServerDiskWrites: 1437}},
	{"random", "flush-back", 256 << 10, 1 << 20, TwoLevelResult{ClientAccesses: 5527, ClientReadMisses: 2380, WriteForwards: 2337, NetworkBlocks: 4717, ServerDiskReads: 2083, ServerDiskWrites: 2189}},
	{"diskless-2h", "write-through", 128 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 50699, WriteForwards: 22685, NetworkBlocks: 73384, ServerDiskReads: 13603, ServerDiskWrites: 22685}},
	{"diskless-2h", "write-through", 512 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 33932, WriteForwards: 22685, NetworkBlocks: 56617, ServerDiskReads: 13634, ServerDiskWrites: 22685}},
	{"diskless-2h", "write-through", 1 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 25408, WriteForwards: 22685, NetworkBlocks: 48093, ServerDiskReads: 14048, ServerDiskWrites: 22685}},
	{"diskless-2h", "write-through", 2 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 16960, WriteForwards: 22685, NetworkBlocks: 39645, ServerDiskReads: 13693, ServerDiskWrites: 22685}},
	{"diskless-2h", "delayed-write", 128 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 50699, WriteForwards: 22685, NetworkBlocks: 73384, ServerDiskReads: 13603, ServerDiskWrites: 6020}},
	{"diskless-2h", "delayed-write", 512 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 33932, WriteForwards: 22685, NetworkBlocks: 56617, ServerDiskReads: 13634, ServerDiskWrites: 6015}},
	{"diskless-2h", "delayed-write", 1 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 25408, WriteForwards: 22685, NetworkBlocks: 48093, ServerDiskReads: 14048, ServerDiskWrites: 5992}},
	{"diskless-2h", "delayed-write", 2 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 16960, WriteForwards: 22685, NetworkBlocks: 39645, ServerDiskReads: 13693, ServerDiskWrites: 5743}},
	{"diskless-2h", "flush-back", 128 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 50699, WriteForwards: 22685, NetworkBlocks: 73384, ServerDiskReads: 13603, ServerDiskWrites: 16850}},
	{"diskless-2h", "flush-back", 512 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 33932, WriteForwards: 22685, NetworkBlocks: 56617, ServerDiskReads: 13634, ServerDiskWrites: 16850}},
	{"diskless-2h", "flush-back", 1 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 25408, WriteForwards: 22685, NetworkBlocks: 48093, ServerDiskReads: 14048, ServerDiskWrites: 16850}},
	{"diskless-2h", "flush-back", 2 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 87696, ClientReadMisses: 16960, WriteForwards: 22685, NetworkBlocks: 39645, ServerDiskReads: 13693, ServerDiskWrites: 16850}},
	{"diskless", "write-through", 128 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 167020, WriteForwards: 74485, NetworkBlocks: 241505, ServerDiskReads: 44419, ServerDiskWrites: 74485}},
	{"diskless", "write-through", 512 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 113600, WriteForwards: 74485, NetworkBlocks: 188085, ServerDiskReads: 44541, ServerDiskWrites: 74485}},
	{"diskless", "write-through", 1 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 84623, WriteForwards: 74485, NetworkBlocks: 159108, ServerDiskReads: 45830, ServerDiskWrites: 74485}},
	{"diskless", "write-through", 2 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 56483, WriteForwards: 74485, NetworkBlocks: 130968, ServerDiskReads: 44452, ServerDiskWrites: 74485}},
	{"diskless", "delayed-write", 128 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 167020, WriteForwards: 74485, NetworkBlocks: 241505, ServerDiskReads: 44419, ServerDiskWrites: 19392}},
	{"diskless", "delayed-write", 512 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 113600, WriteForwards: 74485, NetworkBlocks: 188085, ServerDiskReads: 44541, ServerDiskWrites: 19381}},
	{"diskless", "delayed-write", 1 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 84623, WriteForwards: 74485, NetworkBlocks: 159108, ServerDiskReads: 45830, ServerDiskWrites: 19396}},
	{"diskless", "delayed-write", 2 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 56483, WriteForwards: 74485, NetworkBlocks: 130968, ServerDiskReads: 44452, ServerDiskWrites: 18800}},
	{"diskless", "flush-back", 128 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 167020, WriteForwards: 74485, NetworkBlocks: 241505, ServerDiskReads: 44419, ServerDiskWrites: 57326}},
	{"diskless", "flush-back", 512 << 10, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 113600, WriteForwards: 74485, NetworkBlocks: 188085, ServerDiskReads: 44541, ServerDiskWrites: 57326}},
	{"diskless", "flush-back", 1 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 84623, WriteForwards: 74485, NetworkBlocks: 159108, ServerDiskReads: 45830, ServerDiskWrites: 57326}},
	{"diskless", "flush-back", 2 << 20, 8 << 20, TwoLevelResult{ClientAccesses: 284609, ClientReadMisses: 56483, WriteForwards: 74485, NetworkBlocks: 130968, ServerDiskReads: 44452, ServerDiskWrites: 57326}},
}

// TestHierarchyMatchesTwoLevel is the equivalence oracle for the
// two-level network as the hierarchy engine's [write-through client,
// server, disk] stack: every count must equal the pinned value exactly —
// client accesses and misses, write forwards, and the server's disk
// reads and writes.
func TestHierarchyMatchesTwoLevel(t *testing.T) {
	diskless := "diskless"
	if testing.Short() {
		diskless = "diskless-2h"
	}
	inputs := map[string][]*xfer.Tape{
		"random": hierarchyMachines(t),
		diskless: disklessTapes(t),
	}
	policies := map[string]struct {
		write    WritePolicy
		interval trace.Time
	}{
		"write-through": {WriteThrough, 0},
		"delayed-write": {DelayedWrite, 0},
		"flush-back":    {FlushBack, 30 * trace.Second},
	}
	for _, name := range []string{"write-through", "delayed-write", "flush-back"} {
		t.Run(name, func(t *testing.T) {
			pol := policies[name]
			checked := 0
			for _, pin := range twoLevelPins {
				tapes := inputs[pin.set]
				if pin.write != name || tapes == nil {
					continue
				}
				cfg := TwoLevelConfig{
					BlockSize: 4096, ClientCache: pin.client, ServerCache: pin.server,
					Write: pol.write, FlushInterval: pol.interval,
				}
				got, err := TwoLevelSimulateTapes(tapes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := pin.want
				want.Config = cfg
				if *got != want {
					t.Errorf("%s, client %d: got %+v, pinned %+v", pin.set, pin.client, *got, want)
				}
				checked++
			}
			if checked != 5 {
				t.Errorf("checked %d pinned configurations, want 5", checked)
			}
		})
	}
}

// hierarchyStacks are the tier stacks TestHierarchyTiers runs: a cache
// over the store, RAM/flash/disk with a zoo policy in the middle, and a
// four-tier stack whose middle tiers queue traffic and purges for the
// cache tier below them.
func hierarchyStacks() map[string][]Tier {
	disk := Tier{Name: "disk", ReadLatency: 10 * trace.Millisecond, WriteLatency: 10 * trace.Millisecond}
	return map[string][]Tier{
		"2-tier": {
			{Name: "ram", Size: 32 * 4096, Replacement: LRU, Write: FlushBack, FlushInterval: 30 * trace.Second},
			disk,
		},
		"3-tier": {
			{Name: "ram", Size: 32 * 4096, Replacement: LRU, Write: WriteThrough},
			{Name: "flash", Size: 1 << 20, Replacement: ARC, Seed: 1, Write: DelayedWrite,
				ReadLatency: 1 * trace.Millisecond, WriteLatency: 2 * trace.Millisecond,
				EnduranceWrites: 1000},
			disk,
		},
		"4-tier": {
			{Name: "ram", Size: 32 * 4096, Replacement: LRU, Write: WriteThrough},
			{Name: "nvram", Size: 64 * 4096, Replacement: TwoQ, Write: FlushBack, FlushInterval: 30 * trace.Second,
				ReadLatency: trace.Millisecond, WriteLatency: trace.Millisecond},
			{Name: "flash", Size: 1 << 20, Replacement: ARC, Seed: 1, Write: DelayedWrite,
				ReadLatency: 1 * trace.Millisecond, WriteLatency: 2 * trace.Millisecond,
				EnduranceWrites: 1000},
			disk,
		},
	}
}

// TestHierarchyThreeTier runs two-, three- and four-tier stacks and
// checks the flow-conservation invariants on each: every operation a
// tier forwards arrives at the tier below, busy time follows the
// latency model, wear tracks media writes, and reruns are
// bit-identical.
func TestHierarchyThreeTier(t *testing.T) {
	tapes := hierarchyMachines(t)
	for name, tiers := range hierarchyStacks() {
		t.Run(name, func(t *testing.T) {
			cfg := HierarchyConfig{BlockSize: 4096, Tiers: tiers}
			h, err := HierarchySimulateTapes(tapes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkTierFlow(t, cfg, h)
			again, err := HierarchySimulateTapes(tapes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range h.Tiers {
				if a, b := h.Tiers[i], again.Tiers[i]; a != b {
					t.Errorf("tier %d rerun differs: %+v vs %+v", i, a, b)
				}
			}
		})
	}
}

// checkTierFlow checks one hierarchy result's conservation, latency and
// wear invariants.
func checkTierFlow(t *testing.T, cfg HierarchyConfig, h *HierarchyResult) {
	t.Helper()
	last := len(h.Tiers) - 1
	if h.Tiers[0].MaxBlockWrites != 0 {
		t.Errorf("tier 0 wear tracked (%d), want untracked", h.Tiers[0].MaxBlockWrites)
	}
	if h.Tiers[0].Reads+h.Tiers[0].Writes != h.ClientAccesses {
		t.Errorf("tier 0 saw %d reads + %d writes, %d client accesses",
			h.Tiers[0].Reads, h.Tiers[0].Writes, h.ClientAccesses)
	}
	for i := 1; i <= last; i++ {
		above, tr, tier := &h.Tiers[i-1], &h.Tiers[i], cfg.Tiers[i]
		if tr.Reads != above.ReadMisses {
			t.Errorf("%s saw %d reads, %s forwarded %d", tr.Name, tr.Reads, above.Name, above.ReadMisses)
		}
		if tr.Writes != above.WriteBacks {
			t.Errorf("%s saw %d writes, %s forwarded %d", tr.Name, tr.Writes, above.Name, above.WriteBacks)
		}
		media := tr.Writes + tr.Fills
		if i < last {
			if tr.Fills != tr.ReadMisses {
				t.Errorf("%s fills %d, read misses %d", tr.Name, tr.Fills, tr.ReadMisses)
			}
			if hr := tr.HitRatio(); hr < 0 || hr > 1 {
				t.Errorf("%s hit ratio %v out of range", tr.Name, hr)
			}
		} else if tr.ReadMisses != 0 || tr.Fills != 0 || tr.WriteBacks != 0 {
			t.Errorf("store %s forwarded traffic: %+v", tr.Name, *tr)
		}
		wantBusy := tier.ReadLatency*trace.Time(tr.Reads) + tier.WriteLatency*trace.Time(media)
		if tr.BusyTime != wantBusy {
			t.Errorf("%s busy time %v, want %v", tr.Name, tr.BusyTime, wantBusy)
		}
		if media == 0 {
			if tr.MaxBlockWrites != 0 {
				t.Errorf("%s unwritten but MaxBlockWrites = %d", tr.Name, tr.MaxBlockWrites)
			}
			continue
		}
		if tr.MaxBlockWrites < 1 {
			t.Errorf("%s media written but MaxBlockWrites = 0", tr.Name)
		}
		if tr.MeanBlockWrites <= 0 || tr.MeanBlockWrites > float64(tr.MaxBlockWrites) {
			t.Errorf("%s mean block writes %v vs max %d", tr.Name, tr.MeanBlockWrites, tr.MaxBlockWrites)
		}
		want := 0.0
		if tier.EnduranceWrites > 0 {
			want = float64(tr.MaxBlockWrites) / float64(tier.EnduranceWrites)
		}
		if tr.WearFraction != want {
			t.Errorf("%s wear fraction %v, want %v", tr.Name, tr.WearFraction, want)
		}
	}
	if h.DiskReads() != h.Tiers[last].Reads || h.DiskWrites() != h.Tiers[last].Writes {
		t.Errorf("disk I/O %d/%d, store tier %d/%d", h.DiskReads(), h.DiskWrites(), h.Tiers[last].Reads, h.Tiers[last].Writes)
	}
}

// TestHierarchyPurgeReachesLastCacheTier: a file written through two
// write-through tiers into a delayed-write tier and then deleted must
// die in that tier too, so a later file needs no eviction there and
// the disk sees no write. Only a stack of four or more tiers forwards
// purges through a queued middle tier.
func TestHierarchyPurgeReachesLastCacheTier(t *testing.T) {
	a := newTB()
	a.write(1, 8192)
	a.unlink(1)
	a.write(2, 8192)
	h, err := HierarchySimulateTapes(machineTapes(t, a.events), HierarchyConfig{BlockSize: 4096, Tiers: []Tier{
		{Name: "client", Size: 1 << 20, Replacement: LRU, Write: WriteThrough},
		{Name: "mid", Size: 1 << 20, Replacement: LRU, Write: WriteThrough},
		{Name: "low", Size: 2 * 4096, Replacement: LRU, Write: DelayedWrite},
		{Name: "disk"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Tiers[2].Writes != 4 {
		t.Fatalf("low tier saw %d writes, want 4", h.Tiers[2].Writes)
	}
	if h.DiskWrites() != 0 {
		t.Errorf("disk writes = %d, want 0 (file 1 died in the low tier)", h.DiskWrites())
	}
}

// TestHierarchyZooTiers runs every policy as the shared-tier policy of
// a three-tier stack: the engine must accept the whole zoo.
func TestHierarchyZooTiers(t *testing.T) {
	tapes := hierarchyMachines(t)[:1]
	for _, rep := range AllReplacements() {
		h, err := HierarchySimulateTapes(tapes, HierarchyConfig{
			BlockSize: 4096,
			Tiers: []Tier{
				{Name: "ram", Size: 16 * 4096, Replacement: LRU, Write: WriteThrough},
				{Name: "mid", Size: 256 * 4096, Replacement: rep, Seed: 1, Write: DelayedWrite},
				{Name: "disk"},
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if h.DiskReads() > h.Tiers[1].Reads {
			t.Errorf("%v: disk reads %d exceed mid-tier reads %d", rep, h.DiskReads(), h.Tiers[1].Reads)
		}
	}
}

// TestHierarchyValidation: malformed tier stacks must be rejected up
// front.
func TestHierarchyValidation(t *testing.T) {
	tapes := hierarchyMachines(t)[:1]
	bad := []HierarchyConfig{
		{BlockSize: 4096, Tiers: []Tier{{Name: "disk"}}}, // one tier
		{BlockSize: 4096, Tiers: []Tier{ // finite final tier
			{Name: "ram", Size: 1 << 20}, {Name: "disk", Size: 1 << 20}}},
		{BlockSize: 4096, Tiers: []Tier{ // unbounded middle tier
			{Name: "ram", Size: 1 << 20}, {Name: "mid"}, {Name: "disk"}}},
		{BlockSize: 4096, Tiers: []Tier{ // unknown policy
			{Name: "ram", Size: 1 << 20, Replacement: numReplacements}, {Name: "disk"}}},
		{BlockSize: 0, Tiers: []Tier{ // bad block size
			{Name: "ram", Size: 1 << 20}, {Name: "disk"}}},
	}
	for i, cfg := range bad {
		if _, err := HierarchySimulateTapes(tapes, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := HierarchySimulateTapes(nil, bad[0]); err == nil {
		t.Error("zero machines accepted")
	}
}
