package workload

import (
	"reflect"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/trace"
)

// genA5 generates and caches a one-hour A5 trace shared by the
// calibration tests.
var a5cache []trace.Event

func genA5(t *testing.T) []trace.Event {
	t.Helper()
	if a5cache == nil {
		res, err := Generate(Config{Profile: "A5", Seed: 7, Duration: 1 * trace.Hour})
		if err != nil {
			t.Fatal(err)
		}
		a5cache = res.Events
	}
	return a5cache
}

func TestGenerateValidTrace(t *testing.T) {
	events := genA5(t)
	if len(events) < 5000 {
		t.Fatalf("only %d events in an hour", len(events))
	}
	errs, _ := trace.Validate(events)
	for _, err := range errs {
		t.Errorf("validator: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Profile: "C4", Seed: 3, Duration: 20 * trace.Minute}
	r1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Fatalf("same seed produced different traces (%d vs %d events)", len(r1.Events), len(r2.Events))
	}
	r3, err := Generate(Config{Profile: "C4", Seed: 4, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Events, r3.Events) {
		t.Fatalf("different seeds produced identical traces")
	}
}

func TestUnknownProfile(t *testing.T) {
	if _, err := Generate(Config{Profile: "Z9"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestAllProfilesGenerate(t *testing.T) {
	for name, prof := range profiles {
		res, err := Generate(Config{Profile: name, Seed: 11, Duration: 15 * trace.Minute})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Events) == 0 {
			t.Errorf("%s: empty trace", name)
		}
		if res.Profile.Name != name || res.Profile.Users() != prof.Users() {
			t.Errorf("%s: profile mismatch: %+v", name, res.Profile)
		}
		errs, _ := trace.Validate(res.Events)
		if len(errs) != 0 {
			t.Errorf("%s: invalid trace: %v", name, errs[0])
		}
	}
}

func TestUserScale(t *testing.T) {
	small, err := Generate(Config{Profile: "A5", Seed: 5, Duration: 20 * trace.Minute, UserScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if small.Profile.Users() >= 28 {
		t.Errorf("UserScale did not shrink the population: %d users", small.Profile.Users())
	}
	full, err := Generate(Config{Profile: "A5", Seed: 5, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Events) >= len(full.Events) {
		t.Errorf("quarter population generated more events (%d) than full (%d)", len(small.Events), len(full.Events))
	}
}

func TestEventMixNearPaper(t *testing.T) {
	events := genA5(t)
	var c trace.Counts
	for _, e := range events {
		c.Add(e)
	}
	// Loose brackets around the paper's Table III fractions.
	checks := []struct {
		kind     trace.Kind
		min, max float64
	}{
		{trace.KindCreate, 0.02, 0.12},
		{trace.KindOpen, 0.20, 0.40},
		{trace.KindClose, 0.28, 0.42},
		{trace.KindSeek, 0.10, 0.30},
		{trace.KindUnlink, 0.01, 0.08},
		{trace.KindExec, 0.03, 0.12},
	}
	for _, ch := range checks {
		f := c.Fraction(ch.kind)
		if f < ch.min || f > ch.max {
			t.Errorf("%v fraction = %.3f, want [%.2f, %.2f]", ch.kind, f, ch.min, ch.max)
		}
	}
}

// The headline Section-5 shapes must hold on a generated trace: this test
// is the contract between the workload generator and EXPERIMENTS.md.
func TestCalibrationShapes(t *testing.T) {
	events := genA5(t)
	a := analyzer.Analyze(events, analyzer.Options{})

	// Sequentiality (Table V): most accesses whole-file, nearly all
	// sequential; read-write accesses mostly non-sequential.
	if f := a.Sequentiality.WholeFileFraction(analyzer.ClassReadOnly); f < 0.55 || f > 0.80 {
		t.Errorf("whole-file read fraction = %.2f, want ~0.63-0.70", f)
	}
	if f := a.Sequentiality.WholeFileFraction(analyzer.ClassWriteOnly); f < 0.65 || f > 0.95 {
		t.Errorf("whole-file write fraction = %.2f, want ~0.81-0.85", f)
	}
	if f := a.Sequentiality.SequentialFraction(analyzer.ClassReadOnly); f < 0.85 {
		t.Errorf("sequential read fraction = %.2f, want >= 0.85", f)
	}
	if f := a.Sequentiality.SequentialFraction(analyzer.ClassWriteOnly); f < 0.90 {
		t.Errorf("sequential write fraction = %.2f, want >= 0.90", f)
	}
	if f := a.Sequentiality.SequentialFraction(analyzer.ClassReadWrite); f > 0.60 {
		t.Errorf("sequential read-write fraction = %.2f, want mostly non-sequential", f)
	}

	// Open durations (Figure 3): most opens are short.
	if f := a.OpenTimes.FractionAtOrBelow(0.5); f < 0.65 || f > 0.90 {
		t.Errorf("opens <= 0.5s = %.2f, want ~0.75", f)
	}
	if f := a.OpenTimes.FractionAtOrBelow(10); f < 0.85 {
		t.Errorf("opens <= 10s = %.2f, want ~0.90", f)
	}

	// File sizes (Figure 2): accesses dominated by short files, bytes
	// much less so.
	byFiles := a.FileSizesByFiles.FractionAtOrBelow(10240)
	byBytes := a.FileSizesByBytes.FractionAtOrBelow(10240)
	if byFiles < 0.60 {
		t.Errorf("accesses to files <= 10KB = %.2f, want ~0.80", byFiles)
	}
	if byBytes > byFiles-0.2 {
		t.Errorf("bytes from small files (%.2f) should lag accesses (%.2f)", byBytes, byFiles)
	}

	// Lifetimes (Figure 4): most new files die within minutes, with a
	// visible spike near 180 seconds from the status daemon.
	lf := a.Lifetimes.ByFiles
	if f := lf.FractionAtOrBelow(300); f < 0.55 {
		t.Errorf("new files dead within 5 minutes = %.2f, want most", f)
	}
	spike := lf.FractionAtOrBelow(182) - lf.FractionAtOrBelow(178)
	if spike < 0.10 {
		t.Errorf("180s lifetime spike = %.2f of files, want >= 0.10", spike)
	}

	// Activity (Table IV): hundreds of bytes per second per active user
	// over 10-minute windows, an order of magnitude burstier over 10s.
	if m := a.Activity.Long.PerUserThroughput.Mean(); m < 100 || m > 2000 {
		t.Errorf("per-user 10-min throughput = %.0f B/s, want a few hundred", m)
	}
	if m := a.Activity.Short.PerUserThroughput.Mean(); m < a.Activity.Long.PerUserThroughput.Mean() {
		t.Errorf("10-second throughput should exceed 10-minute throughput")
	}
}

func TestDefaultsFill(t *testing.T) {
	var c Config
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if c.Profile != "A5" || c.Duration != 8*trace.Hour || c.UserScale != 1.0 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestKernelStatsPopulated(t *testing.T) {
	res, err := Generate(Config{Profile: "A5", Seed: 2, Duration: 10 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	st := res.KernelStats
	if st.Opens == 0 || st.Creates == 0 || st.Closes == 0 || st.Seeks == 0 || st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Errorf("kernel stats look empty: %+v", st)
	}
	// The trace's close count equals the kernel's.
	var c trace.Counts
	for _, e := range res.Events {
		c.Add(e)
	}
	if c.ByKind[trace.KindClose] != st.Closes {
		t.Errorf("trace closes %d != kernel closes %d", c.ByKind[trace.KindClose], st.Closes)
	}
}

// TestProfileDifferences asserts the machine-to-machine contrasts the
// paper's Table IV shows: the CAD machine (C4) has the fewest users but
// the highest per-user data rates; Ucbernie (E3) has the most users.
func TestProfileDifferences(t *testing.T) {
	analyses := map[string]*analyzer.Analysis{}
	for _, name := range []string{"A5", "E3", "C4"} {
		res, err := Generate(Config{Profile: name, Seed: 7, Duration: 1 * trace.Hour})
		if err != nil {
			t.Fatal(err)
		}
		analyses[name] = analyzer.Analyze(res.Events, analyzer.Options{})
	}
	a5, e3, c4 := analyses["A5"], analyses["E3"], analyses["C4"]
	if c4.Activity.TotalUsers >= a5.Activity.TotalUsers {
		t.Errorf("C4 should have fewer users: %d vs %d", c4.Activity.TotalUsers, a5.Activity.TotalUsers)
	}
	if e3.Activity.TotalUsers <= a5.Activity.TotalUsers {
		t.Errorf("E3 should have the most users: %d vs %d", e3.Activity.TotalUsers, a5.Activity.TotalUsers)
	}
	if c4.Activity.Long.PerUserThroughput.Mean() <= a5.Activity.Long.PerUserThroughput.Mean() {
		t.Errorf("CAD users should move more data: %.0f vs %.0f B/s",
			c4.Activity.Long.PerUserThroughput.Mean(), a5.Activity.Long.PerUserThroughput.Mean())
	}
	// All three still show the same qualitative shapes (paper §7: "The
	// results are similar in all three traces").
	for name, a := range analyses {
		if f := a.Sequentiality.SequentialFraction(analyzer.ClassReadOnly); f < 0.85 {
			t.Errorf("%s: sequential reads %.2f", name, f)
		}
		if f := a.OpenTimes.FractionAtOrBelow(10); f < 0.85 {
			t.Errorf("%s: opens<=10s %.2f", name, f)
		}
	}
}

// TestDiurnalCycle: with the day/night cycle on, afternoon activity far
// exceeds small-hours activity; off, the load is roughly flat.
func TestDiurnalCycle(t *testing.T) {
	res, err := Generate(Config{Profile: "A5", Seed: 13, Duration: 24 * trace.Hour, Diurnal: true})
	if err != nil {
		t.Fatal(err)
	}
	countIn := func(events []trace.Event, from, to trace.Time) int {
		n := 0
		for _, e := range events {
			if e.Time >= from && e.Time < to {
				n++
			}
		}
		return n
	}
	night := countIn(res.Events, 1*trace.Hour, 5*trace.Hour)       // 1-5 a.m.
	afternoon := countIn(res.Events, 13*trace.Hour, 17*trace.Hour) // 1-5 p.m.
	if afternoon < night*2 {
		t.Errorf("diurnal cycle too weak: %d events at night vs %d in the afternoon", night, afternoon)
	}

	flat, err := Generate(Config{Profile: "A5", Seed: 13, Duration: 24 * trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fNight := countIn(flat.Events, 1*trace.Hour, 5*trace.Hour)
	fAfternoon := countIn(flat.Events, 13*trace.Hour, 17*trace.Hour)
	if fNight == 0 || fAfternoon > fNight*2 {
		t.Errorf("flat load looks diurnal: %d vs %d", fNight, fAfternoon)
	}
}

func TestLoadFactorShape(t *testing.T) {
	if loadFactor(4*trace.Hour) >= loadFactor(14*trace.Hour) {
		t.Errorf("4am should be quieter than 2pm")
	}
	if loadFactor(14*trace.Hour) != 1.0 {
		t.Errorf("afternoon peak should be 1.0")
	}
	// Second virtual day wraps.
	if loadFactor(24*trace.Hour+14*trace.Hour) != 1.0 {
		t.Errorf("cycle should repeat daily")
	}
}
