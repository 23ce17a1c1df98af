package cachesim

import (
	"math"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// machineTapes builds one tape per machine trace.
func machineTapes(t *testing.T, machines ...[]trace.Event) []*xfer.Tape {
	t.Helper()
	tapes := make([]*xfer.Tape, len(machines))
	for m, events := range machines {
		tapes[m] = mustTape(t, events)
	}
	return tapes
}

func twoMachines() [][]trace.Event {
	a := newTB()
	a.write(1, 8192)
	a.read(1, 8192)
	a.read(2, 4096) // cold: client miss -> server miss -> disk
	b := newTB()
	b.read(5, 4096) // cold on machine B
	b.read(5, 4096) // client hit
	return [][]trace.Event{a.events, b.events}
}

func TestTwoLevelBasics(t *testing.T) {
	r, err := TwoLevelSimulateTapes(machineTapes(t, twoMachines()...), TwoLevelConfig{
		BlockSize: 4096, ClientCache: 1 << 20, ServerCache: 4 << 20,
		Write: DelayedWrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Machine A: 2 write accesses (forwarded), 2 read hits (just
	// written), 1 cold read (forward). Machine B: 1 cold read (forward),
	// 1 hit. Total accesses 7.
	if r.ClientAccesses != 7 {
		t.Errorf("ClientAccesses = %d, want 7", r.ClientAccesses)
	}
	if r.WriteForwards != 2 {
		t.Errorf("WriteForwards = %d, want 2", r.WriteForwards)
	}
	if r.ClientReadMisses != 2 {
		t.Errorf("ClientReadMisses = %d, want 2", r.ClientReadMisses)
	}
	if r.NetworkBlocks != 4 {
		t.Errorf("NetworkBlocks = %d, want 4", r.NetworkBlocks)
	}
	// Server: 2 cold reads hit the disk; the 2 forwarded writes stay
	// dirty in the delayed-write server cache.
	if r.ServerDiskReads != 2 {
		t.Errorf("ServerDiskReads = %d, want 2", r.ServerDiskReads)
	}
	if r.ServerDiskWrites != 0 {
		t.Errorf("ServerDiskWrites = %d, want 0 (delayed)", r.ServerDiskWrites)
	}
	if got, want := r.ClientHitRatio(), 3.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("ClientHitRatio = %v, want %v", got, want)
	}
	if got, want := r.EndToEndMissRatio(), 2.0/7; got != want {
		t.Errorf("EndToEndMissRatio = %v, want %v", got, want)
	}
}

func TestTwoLevelServerWriteThrough(t *testing.T) {
	r, err := TwoLevelSimulateTapes(machineTapes(t, twoMachines()...), TwoLevelConfig{
		BlockSize: 4096, ClientCache: 1 << 20, ServerCache: 4 << 20,
		Write: WriteThrough,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ServerDiskWrites != 2 {
		t.Errorf("ServerDiskWrites = %d, want 2 under write-through", r.ServerDiskWrites)
	}
}

func TestTwoLevelPurgePropagates(t *testing.T) {
	// A file written on machine A and deleted: its dirty blocks must die
	// at the server too, costing no disk write even though the client
	// wrote them through.
	a := newTB()
	a.write(1, 8192)
	a.unlink(1)
	r, err := TwoLevelSimulateTapes(machineTapes(t, a.events), TwoLevelConfig{
		BlockSize: 4096, ClientCache: 1 << 20, ServerCache: 4 << 20,
		Write: DelayedWrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ServerDiskIOs() != 0 {
		t.Errorf("server disk I/O = %d, want 0 (data died at the server)", r.ServerDiskIOs())
	}
}

func TestTwoLevelTinyClientForwardsMore(t *testing.T) {
	machines := machineTapes(t, randomTrace(5, 300))
	small, err := TwoLevelSimulateTapes(machines, TwoLevelConfig{
		BlockSize: 4096, ClientCache: 8192, ServerCache: 8 << 20, Write: DelayedWrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := TwoLevelSimulateTapes(machines, TwoLevelConfig{
		BlockSize: 4096, ClientCache: 4 << 20, ServerCache: 8 << 20, Write: DelayedWrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.NetworkBlocks <= big.NetworkBlocks {
		t.Errorf("smaller client cache should forward more: %d vs %d",
			small.NetworkBlocks, big.NetworkBlocks)
	}
	if small.ClientAccesses != big.ClientAccesses {
		t.Errorf("client accesses should not depend on cache size")
	}
}

func TestTwoLevelMachinesDoNotCollide(t *testing.T) {
	// Two machines use the same file id for different files; the server
	// must keep them separate (two distinct cold reads).
	a := newTB()
	a.read(1, 4096)
	b := newTB()
	b.read(1, 4096)
	r, err := TwoLevelSimulateTapes(machineTapes(t, a.events, b.events), TwoLevelConfig{
		BlockSize: 4096, ClientCache: 1 << 20, ServerCache: 4 << 20, Write: DelayedWrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ServerDiskReads != 2 {
		t.Errorf("ServerDiskReads = %d, want 2 (no aliasing across machines)", r.ServerDiskReads)
	}
}

func TestTwoLevelErrors(t *testing.T) {
	if _, err := TwoLevelSimulateTapes(nil, TwoLevelConfig{BlockSize: 4096, ClientCache: 1, ServerCache: 1}); err == nil {
		t.Errorf("no machines accepted")
	}
	good := machineTapes(t, []trace.Event{{Time: 0, Kind: trace.KindUnlink, File: 1}})
	if _, err := TwoLevelSimulateTapes(good, TwoLevelConfig{ClientCache: 1 << 20, ServerCache: 1 << 20}); err == nil {
		t.Errorf("zero block size accepted")
	}
	for _, cfg := range []TwoLevelConfig{
		{BlockSize: 4096, ServerCache: 1 << 20},
		{BlockSize: 4096, ClientCache: 1 << 20},
		{BlockSize: 4096, ClientCache: 1 << 20, ServerCache: 1 << 20, Write: FlushBack},
	} {
		if _, err := TwoLevelSimulateTapes(good, cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// BenchmarkDisklessTapes runs fsreport's four diskless configurations
// (8 MB delayed-write server, 128 KB to 2 MB clients) over the A5, E3
// and C4 tapes (8 h, 2 h under -short), built before the timer.
func BenchmarkDisklessTapes(b *testing.B) {
	var tapes []*xfer.Tape
	for _, name := range []string{"A5", "E3", "C4"} {
		tapes = append(tapes, profileTape(b, name))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cc := range []int64{128 << 10, 512 << 10, 1 << 20, 2 << 20} {
			if _, err := TwoLevelSimulateTapes(tapes, TwoLevelConfig{
				BlockSize: 4096, ClientCache: cc, ServerCache: 8 << 20, Write: DelayedWrite,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
