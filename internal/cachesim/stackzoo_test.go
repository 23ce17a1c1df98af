package cachesim

import (
	"math/rand"
	"testing"

	"bsdtrace/internal/trace"
)

// TestGeneralStackLRUMatchesFenwick: the generalized priority-stack
// engine instantiated with recency priority is the same analysis as the
// Fenwick-tree fast path, so the two must agree everywhere — cold
// misses, reference count, and miss count at every capacity.
func TestGeneralStackLRUMatchesFenwick(t *testing.T) {
	tape := mustTape(t, randomTrace(19, 500))
	for _, bs := range []int64{1024, 4096, 8192} {
		fast, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := StackDistancesPolicyTape(tape, bs, StackLRU)
		if err != nil {
			t.Fatal(err)
		}
		if gen.References != fast.References || gen.ColdMisses != fast.ColdMisses {
			t.Fatalf("bs %d: general (%d refs, %d cold) vs fenwick (%d refs, %d cold)",
				bs, gen.References, gen.ColdMisses, fast.References, fast.ColdMisses)
		}
		for capBlocks := 0; capBlocks <= 2048; capBlocks++ {
			g, f := gen.Misses(int64(capBlocks)*bs), fast.Misses(int64(capBlocks)*bs)
			if g != f {
				t.Fatalf("bs %d cap %d: general %d misses, fenwick %d", bs, capBlocks, g, f)
			}
		}
	}
}

// stackLFU is the per-size oracle for the generalized analysis: a naive
// stack-managed perfect-LFU cache. Eviction and admission both pick the
// minimum of (frequency, last use) over the cache plus the incoming
// block — the incoming block is refused when it is itself the minimum —
// which is exactly the policy a priority stack induces.
type stackLFU struct {
	cap     int
	cache   map[int32]bool
	freq    map[int32]int64
	lastUse map[int32]int
}

func (c *stackLFU) access(x int32, now int) bool {
	hit := c.cache[x]
	c.freq[x]++
	c.lastUse[x] = now
	if hit {
		return true
	}
	if len(c.cache) < c.cap {
		c.cache[x] = true
		return false
	}
	worse := func(a, b int32) bool {
		if c.freq[a] != c.freq[b] {
			return c.freq[a] < c.freq[b]
		}
		return c.lastUse[a] < c.lastUse[b]
	}
	min := x
	for b := range c.cache {
		if worse(b, min) {
			min = b
		}
	}
	if min != x {
		delete(c.cache, min)
		c.cache[x] = true
	}
	return false
}

// TestStackLFUOracle pins the one-pass LFU curve against brute force:
// for each cache size, a naive stack-managed LFU cache replaying the
// reference string must miss exactly Misses times. The curve must also
// be monotone — that is what having the inclusion property means.
func TestStackLFUOracle(t *testing.T) {
	tape := mustTape(t, randomTrace(31, 400))
	for _, bs := range []int64{1024, 4096} {
		sr, err := StackDistancesPolicyTape(tape, bs, StackLFU)
		if err != nil {
			t.Fatal(err)
		}
		refs := referenceString(tape, resolvedFor(tape, bs))
		prev := sr.References
		for _, capBlocks := range []int{1, 2, 3, 7, 25, 64, 300, 1024} {
			lfu := &stackLFU{
				cap:     capBlocks,
				cache:   map[int32]bool{},
				freq:    map[int32]int64{},
				lastUse: map[int32]int{},
			}
			var misses int64
			for i, id := range refs {
				if !lfu.access(id, i) {
					misses++
				}
			}
			got := sr.Misses(int64(capBlocks) * bs)
			if got != misses {
				t.Errorf("bs %d cap %d: stack LFU misses %d, naive cache missed %d", bs, capBlocks, got, misses)
			}
			if got > prev {
				t.Errorf("bs %d cap %d: LFU curve not monotone (%d > %d)", bs, capBlocks, got, prev)
			}
			prev = got
		}
	}
}

// gridSizes is the full sweep grid's cache-size axis: Table VI's sizes
// united with Table VII's.
func gridSizes() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, cs := range append(PaperCacheSizes(), PaperBlockCacheSizes()...) {
		if !seen[cs] {
			seen[cs] = true
			out = append(out, cs)
		}
	}
	return out
}

// TestStackOracleFullGrid extends the LRU stack oracle to the full sweep
// grid: at every paper block size and every paper cache size, an
// independent LRU cache replaying the reference string must miss exactly
// StackResult.Misses times.
func TestStackOracleFullGrid(t *testing.T) {
	tape := mustTape(t, randomTrace(19, 500))
	for _, bs := range PaperBlockSizes() {
		sr, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		refs := referenceString(tape, resolvedFor(tape, bs))
		for _, cs := range gridSizes() {
			capBlocks := int(cs / bs)
			lru := &simpleLRU{cap: capBlocks, blocks: make(map[int32]*lruNode)}
			var misses int64
			for _, id := range refs {
				if !lru.access(id) {
					misses++
				}
			}
			if got := sr.Misses(cs); got != misses {
				t.Errorf("bs %d cache %d: stack misses %d, LRU cache missed %d", bs, cs, got, misses)
			}
		}
	}
}

// TestStackMatchesSimulateReadOnly: on a read-only trace the full
// simulator has nothing but reference misses to bill — no write-backs,
// no purges, no flushes — so at every grid cell the LRU stack analysis
// must predict SimulateTape's disk reads exactly. This ties the one-pass
// analysis to the production replay engine end to end.
func TestStackMatchesSimulateReadOnly(t *testing.T) {
	b := newTB()
	nFiles := 12
	sizes := make([]int64, nFiles+1)
	for f := 1; f <= nFiles; f++ {
		sizes[f] = int64(f*7+3)*1024 + 137 // odd sizes: last block partial
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		f := 1 + rng.Intn(nFiles)
		b.read(trace.FileID(f), sizes[f])
	}
	tape := mustTape(t, b.events)

	for _, bs := range PaperBlockSizes() {
		sr, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range gridSizes() {
			res, err := SimulateTape(tape, Config{
				BlockSize:   bs,
				CacheSize:   cs,
				Write:       WriteThrough,
				Replacement: LRU,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DiskWrites != 0 {
				t.Fatalf("bs %d cache %d: read-only trace produced %d disk writes", bs, cs, res.DiskWrites)
			}
			if want := sr.Misses(cs); res.DiskReads != want {
				t.Errorf("bs %d cache %d: SimulateTape read %d blocks, stack analysis predicts %d",
					bs, cs, res.DiskReads, want)
			}
		}
	}
}

// TestMissCurveTape checks the zoo-wide miss-curve front end: the LRU
// path must match the Mattson analysis exactly, every policy's curve
// must sit between cold misses and total references, reruns must be
// bit-identical, and malformed arguments must be rejected.
func TestMissCurveTape(t *testing.T) {
	tape := mustTape(t, randomTrace(43, 400))
	const bs = 4096
	sizes := []int64{bs, 3 * bs, 7 * bs, 64 * bs, 2 << 20}
	sr, err := StackDistancesTape(tape, bs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range AllReplacements() {
		curve, err := MissCurveTape(tape, bs, rep, sizes, 1)
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if len(curve) != len(sizes) {
			t.Fatalf("%v: curve has %d points, want %d", rep, len(curve), len(sizes))
		}
		for i, m := range curve {
			if m < sr.ColdMisses || m > sr.References {
				t.Errorf("%v size %d: %d misses outside [%d cold, %d refs]",
					rep, sizes[i], m, sr.ColdMisses, sr.References)
			}
			if rep == LRU && m != sr.Misses(sizes[i]) {
				t.Errorf("lru size %d: curve %d, stack analysis %d", sizes[i], m, sr.Misses(sizes[i]))
			}
		}
		again, err := MissCurveTape(tape, bs, rep, sizes, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range curve {
			if curve[i] != again[i] {
				t.Errorf("%v size %d: rerun differs (%d vs %d)", rep, sizes[i], curve[i], again[i])
			}
		}
	}
	if _, err := MissCurveTape(tape, 0, LRU, sizes, 1); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := MissCurveTape(tape, bs, numReplacements, sizes, 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := MissCurveTape(tape, bs, LRU, []int64{0}, 1); err == nil {
		t.Error("zero cache size accepted")
	}
	if _, err := StackDistancesPolicyTape(tape, bs, StackPolicy(9)); err == nil {
		t.Error("unknown stack policy accepted")
	}
	if got := StackLFU.String(); got != "stack-lfu" {
		t.Errorf("StackLFU.String() = %q", got)
	}
}
