package cachesim_test

// The policy-zoo test battery: every replacement policy through the
// shared replacertest conformance suite, differential oracles pinning the
// production policies against the naive reference implementations, the
// String/ParseReplacement round trip, and end-to-end zoo simulations on a
// generated trace. This file is an external test package on purpose:
// replacertest cannot be imported from inside package cachesim (import
// cycle through the package under test).

import (
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/cachesim/replacertest"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// TestReplacerConformance runs every shipped policy through the shared
// conformance suite.
func TestReplacerConformance(t *testing.T) {
	for _, r := range cachesim.AllReplacements() {
		r := r
		t.Run(r.String(), func(t *testing.T) {
			replacertest.Run(t, func(capacity int, seed int64) replacertest.Policy {
				return cachesim.NewPolicy(r, capacity, seed)
			})
		})
	}
}

// TestReplacementRoundTrip pins the String/ParseReplacement symmetry: a
// policy added without wiring both sides (or newReplacer, via NewPolicy)
// fails here, not in some command's flag parsing.
func TestReplacementRoundTrip(t *testing.T) {
	all := cachesim.AllReplacements()
	if len(all) < 9 {
		t.Fatalf("AllReplacements returned %d policies, want at least 9", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		name := r.String()
		if name == "" || name == "replacement(?)" {
			t.Fatalf("policy %d has no String name", r)
		}
		if seen[name] {
			t.Fatalf("duplicate policy name %q", name)
		}
		seen[name] = true
		got, err := cachesim.ParseReplacement(name)
		if err != nil {
			t.Fatalf("ParseReplacement(%q): %v", name, err)
		}
		if got != r {
			t.Fatalf("ParseReplacement(%q) = %v, want %v", name, got, r)
		}
		// newReplacer must know the policy too; NewPolicy panics if not.
		p := cachesim.NewPolicy(r, 4, 1)
		p.Insert(1)
		if p.Len() != 1 {
			t.Fatalf("%v: Len after insert = %d", r, p.Len())
		}
	}
	// The sentinel just past the last policy is unknown on both sides.
	bogus := cachesim.Replacement(len(all))
	if s := bogus.String(); s != "replacement(?)" {
		t.Fatalf("out-of-range String = %q", s)
	}
	if _, err := cachesim.ParseReplacement("no-such-policy"); err == nil {
		t.Fatal("ParseReplacement accepted garbage")
	}
	for _, alias := range []string{"twoq", "segmented-lru", "tiny-lfu", " LRU ", "ARC"} {
		if _, err := cachesim.ParseReplacement(alias); err != nil {
			t.Errorf("ParseReplacement(%q): %v", alias, err)
		}
	}
}

// TestConfigRejectsUnknownReplacement: a Config carrying an out-of-range
// policy must fail validation, not panic mid-replay.
func TestConfigRejectsUnknownReplacement(t *testing.T) {
	cfg := cachesim.Config{
		BlockSize:   4096,
		CacheSize:   1 << 20,
		Write:       cachesim.DelayedWrite,
		Replacement: cachesim.Replacement(len(cachesim.AllReplacements())),
	}
	if _, err := cachesim.SimulateTape(&xfer.Tape{}, cfg); err == nil {
		t.Fatal("SimulateTape accepted an unknown replacement policy")
	}
}

// TestZooDifferential replays the suite workloads through each production
// policy and its naive reference side by side, requiring identical hit
// counts and identical eviction sequences — the differential oracle that
// lets the intrusive-list implementations be trusted.
func TestZooDifferential(t *testing.T) {
	policies := map[string]cachesim.Replacement{
		"lru":  cachesim.LRU,
		"fifo": cachesim.FIFO,
		"arc":  cachesim.ARC,
		"2q":   cachesim.TwoQ,
		"slru": cachesim.SLRU,
		"lirs": cachesim.LIRS,
	}
	for _, name := range []string{"lru", "fifo", "arc", "2q", "slru", "lirs"} {
		r := policies[name]
		t.Run(name, func(t *testing.T) {
			for _, wl := range replacertest.Workloads() {
				for _, capacity := range []int{1, 2, 3, 7, 25, 64, 300} {
					prod := cachesim.NewPolicy(r, capacity, 1)
					ref := replacertest.NewReference(name, capacity)
					if ref == nil {
						t.Fatalf("no reference implementation for %q", name)
					}
					ph, pe := replacertest.Drive(t, prod, capacity, wl.Refs)
					rh, re := replacertest.Drive(t, ref, capacity, wl.Refs)
					if ph != rh {
						t.Fatalf("%s cap %d: production %d hits, reference %d", wl.Name, capacity, ph, rh)
					}
					if len(pe) != len(re) {
						t.Fatalf("%s cap %d: production %d evictions, reference %d", wl.Name, capacity, len(pe), len(re))
					}
					for i := range pe {
						if pe[i] != re[i] {
							t.Fatalf("%s cap %d: eviction %d is %d in production, %d in reference",
								wl.Name, capacity, i, pe[i], re[i])
						}
					}
				}
			}
		})
	}
}

// TestTinyLFUScanResistance pins the admission filter's defining
// behavior: a frequently referenced working set survives a long one-shot
// scan that would wipe out an LRU cache of the same size.
func TestTinyLFUScanResistance(t *testing.T) {
	const capacity = 100
	workloadRefs := func() []int32 {
		var refs []int32
		for round := 0; round < 10; round++ {
			for id := int32(0); id < 50; id++ {
				refs = append(refs, id)
			}
		}
		for i := int32(0); i < 2000; i++ { // the scan: each block once
			refs = append(refs, 1000+i)
		}
		return refs
	}
	survivors := func(p replacertest.Policy) int {
		resident := 0
		for id := int32(0); id < 50; id++ {
			if p.(*cachesim.Policy).Resident(id) {
				resident++
			}
		}
		return resident
	}

	tiny := cachesim.NewPolicy(cachesim.TinyLFU, capacity, 1)
	replacertest.Drive(t, tiny, capacity, workloadRefs())
	if n := survivors(tiny); n < 45 {
		t.Errorf("TinyLFU kept %d/50 hot blocks through the scan, want >= 45", n)
	}

	lru := cachesim.NewPolicy(cachesim.LRU, capacity, 1)
	replacertest.Drive(t, lru, capacity, workloadRefs())
	if n := survivors(lru); n != 0 {
		t.Errorf("LRU kept %d/50 hot blocks through the scan, want 0 (sanity check)", n)
	}
}

// zooTape builds a short generated trace for end-to-end zoo simulations.
func zooTape(t *testing.T) *xfer.Tape {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 6, Duration: 15 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// TestZooSimulateTape runs every policy end to end through the full
// simulator (write policies, purges, flush clocks) and checks the
// structural invariants hold for the zoo exactly as for the classics.
func TestZooSimulateTape(t *testing.T) {
	tape := zooTape(t)
	all := cachesim.AllReplacements()
	cfgs := make([]cachesim.Config, 0, len(all))
	for _, r := range all {
		cfgs = append(cfgs, cachesim.Config{
			BlockSize:   4096,
			CacheSize:   2 << 20,
			Write:       cachesim.DelayedWrite,
			Replacement: r,
			Seed:        1,
		})
	}
	rs, err := cachesim.MultiSimulate(tape, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := cachesim.MultiSimulate(tape, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	base := rs[0]
	for i, r := range rs {
		name := all[i]
		if r.LogicalAccesses != base.LogicalAccesses {
			t.Errorf("%v: %d logical accesses, want %d (policy cannot change the reference string)",
				name, r.LogicalAccesses, base.LogicalAccesses)
		}
		if r.DiskReads > r.ReadAccesses+r.WriteAccesses {
			t.Errorf("%v: %d disk reads exceed %d accesses", name, r.DiskReads, r.LogicalAccesses)
		}
		if mr := r.MissRatio(); mr <= 0 || mr >= 1 {
			t.Errorf("%v: miss ratio %.3f out of range", name, mr)
		}
		if r.DiskReads != rs2[i].DiskReads || r.DiskWrites != rs2[i].DiskWrites {
			t.Errorf("%v: rerun differs: reads %d vs %d, writes %d vs %d",
				name, r.DiskReads, rs2[i].DiskReads, r.DiskWrites, rs2[i].DiskWrites)
		}
	}
}
