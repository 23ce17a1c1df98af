package namei

import (
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

func TestResolveColdAndWarm(t *testing.T) {
	s := New(Config{})
	// Cold resolve of /usr/include/stdio.h: two directory components,
	// each missing (name, dir inode, dir block), plus the file's inode.
	s.Resolve("/usr/include/stdio.h")
	if s.Stats.Resolves != 1 || s.Stats.Components != 2 {
		t.Fatalf("stats after cold resolve: %+v", s.Stats)
	}
	if s.Stats.NameMisses != 2 || s.Stats.NameHits != 0 {
		t.Errorf("name cache: %+v", s.Stats)
	}
	if s.Stats.InodeMisses != 3 { // usr dir, include dir, file
		t.Errorf("inode misses = %d, want 3", s.Stats.InodeMisses)
	}
	if s.Stats.DirBlockMisses != 2 {
		t.Errorf("dir block misses = %d, want 2", s.Stats.DirBlockMisses)
	}
	// "a minimum of two block accesses for each element in a file's
	// pathname": 2 components x 2 + 1 file inode.
	if got := s.Stats.DiskReads(); got != 5 {
		t.Errorf("cold DiskReads = %d, want 5", got)
	}

	// Warm resolve: everything hits; only the name cache and file inode
	// are consulted.
	before := s.Stats.DiskReads()
	s.Resolve("/usr/include/stdio.h")
	if s.Stats.DiskReads() != before {
		t.Errorf("warm resolve cost disk reads")
	}
	if s.Stats.NameHits != 2 {
		t.Errorf("warm name hits = %d, want 2", s.Stats.NameHits)
	}
}

func TestRootFileResolve(t *testing.T) {
	s := New(Config{})
	s.Resolve("/vmunix")
	if s.Stats.Components != 0 {
		t.Errorf("root file should have no directory components: %+v", s.Stats)
	}
	if s.Stats.InodeMisses != 1 {
		t.Errorf("inode misses = %d, want 1", s.Stats.InodeMisses)
	}
}

func TestHitRatios(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 10; i++ {
		s.Resolve("/a/b/file")
	}
	// First resolve misses twice, the rest hit twice each.
	if got := s.Stats.NameHitRatio(); got != 18.0/20 {
		t.Errorf("NameHitRatio = %v, want 0.9", got)
	}
	// Inode probes: 3 cold misses (a, b, file), then 9 warm file hits;
	// directory inodes are only consulted on name-cache misses.
	if got := s.Stats.InodeHitRatio(); got != 0.75 {
		t.Errorf("InodeHitRatio = %v, want 0.75", got)
	}
	var empty Stats
	if empty.NameHitRatio() != 0 || empty.InodeHitRatio() != 0 {
		t.Errorf("empty ratios should be 0")
	}
}

func TestCapacityEviction(t *testing.T) {
	s := New(Config{NameEntries: 2, InodeEntries: 2, DirBlocks: 2})
	s.Resolve("/d1/f")
	s.Resolve("/d2/f")
	s.Resolve("/d3/f") // evicts d1's entries
	missesBefore := s.Stats.NameMisses
	s.Resolve("/d1/f") // must miss again
	if s.Stats.NameMisses != missesBefore+1 {
		t.Errorf("evicted entry did not miss")
	}
}

func TestUpdates(t *testing.T) {
	s := New(Config{})
	s.InodeUpdate()
	s.DirUpdate("/tmp")
	if s.Stats.InodeWrites != 1 || s.Stats.DirWrites != 1 {
		t.Errorf("updates not counted: %+v", s.Stats)
	}
	if s.Stats.DiskWrites() != 2 || s.Stats.DiskIOs() != 2 {
		t.Errorf("write totals wrong: %+v", s.Stats)
	}
	// The rewritten directory block is now cached: resolving a component
	// *inside* /tmp misses the name cache but hits the dir block cache.
	s.Resolve("/tmp/x/y")
	if s.Stats.DirBlockHits != 1 {
		t.Errorf("dir update should warm the dir block cache: %+v", s.Stats)
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(Config{})
	c := s.Config()
	if c.NameEntries <= 0 || c.InodeEntries <= 0 || c.DirBlocks <= 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
}

// Integration: the paper's conclusion experiment. Attach the metadata
// simulator to a real workload and compare metadata disk I/O with the
// data-block I/O of a UNIX-sized cache; the paper estimates metadata could
// be more than half of all disk block references, and Leffler et al.
// report an ~85% directory cache hit ratio.
func TestMetadataVersusDataIO(t *testing.T) {
	sim := New(Config{})
	res, err := workload.Generate(workload.Config{
		Profile: "A5", Seed: 4, Duration: 30 * trace.Minute, Meta: sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stats.Resolves == 0 {
		t.Fatal("meta hook never called")
	}
	hit := sim.Stats.NameHitRatio()
	if hit < 0.70 || hit > 0.999 {
		t.Errorf("name cache hit ratio = %.3f, want high (Leffler: ~0.85)", hit)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cachesim.SimulateTape(tape, cachesim.Config{
		BlockSize: 4096, CacheSize: cachesim.UnixCacheSize,
		Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := sim.Stats.DiskIOs()
	if meta == 0 {
		t.Fatal("no metadata I/O")
	}
	frac := float64(meta) / float64(meta+data.DiskIOs())
	// The paper: "more than half of all disk block references could come
	// from these other accesses" (which also include paging). Metadata
	// alone should at least be a substantial fraction.
	if frac < 0.15 {
		t.Errorf("metadata fraction of disk I/O = %.2f, implausibly small", frac)
	}
	t.Logf("metadata %d vs data %d disk I/Os (%.0f%% metadata); name hit %.1f%%",
		meta, data.DiskIOs(), 100*frac, 100*hit)
}
