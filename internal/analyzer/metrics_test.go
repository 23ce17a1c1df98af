package analyzer

import (
	"errors"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
)

func TestMetricSetClasses(t *testing.T) {
	cases := []struct {
		set   *MetricSet
		class trace.Class
		ok    bool
	}{
		{&LogicalMetrics, trace.ClassLogical, true},
		{&LogicalMetrics, trace.ClassBlock, false},
		{&LogicalMetrics, trace.ClassPage, false},
		{&TransferMetrics, trace.ClassLogical, true},
		{&TransferMetrics, trace.ClassBlock, true},
		{&TransferMetrics, trace.ClassPage, true},
	}
	for _, c := range cases {
		if got := c.set.Supports(c.class); got != c.ok {
			t.Errorf("%s.Supports(%v) = %v, want %v", c.set.Name, c.class, got, c.ok)
		}
		err := c.set.Check(c.class)
		if c.ok && err != nil {
			t.Errorf("%s.Check(%v) = %v, want nil", c.set.Name, c.class, err)
		}
		if !c.ok {
			if !errors.Is(err, ErrUnsupportedClass) {
				t.Errorf("%s.Check(%v) = %v, want ErrUnsupportedClass", c.set.Name, c.class, err)
			}
			var uce *UnsupportedClassError
			if !errors.As(err, &uce) || uce.Class != c.class {
				t.Errorf("%s.Check(%v) is not a typed UnsupportedClassError carrying the class", c.set.Name, c.class)
			}
		}
	}
}

func TestSectionOwnership(t *testing.T) {
	// Every section belongs to exactly one set, and the CLI's historical
	// -only names are all claimed.
	for _, s := range LogicalMetrics.Sections {
		if TransferMetrics.HasSection(s) {
			t.Errorf("section %q claimed by both metric sets", s)
		}
		if SectionMetrics(s) != &LogicalMetrics {
			t.Errorf("SectionMetrics(%q) is not LogicalMetrics", s)
		}
	}
	for _, s := range TransferMetrics.Sections {
		if SectionMetrics(s) != &TransferMetrics {
			t.Errorf("SectionMetrics(%q) is not TransferMetrics", s)
		}
	}
	if SectionMetrics("tableIX") != nil {
		t.Error("SectionMetrics invented an owner for an unknown section")
	}
	// Matching is case-insensitive, like the CLI's -only flag.
	if !LogicalMetrics.HasSection("TABLEV") {
		t.Error("section matching is case-sensitive")
	}
}

func TestCheckSection(t *testing.T) {
	if err := CheckSection("tableV", trace.ClassLogical); err != nil {
		t.Errorf("tableV on logical trace: %v", err)
	}
	if err := CheckSection("tableVI", trace.ClassBlock); err != nil {
		t.Errorf("tableVI on block trace: %v", err)
	}
	err := CheckSection("tableV", trace.ClassBlock)
	if !errors.Is(err, ErrUnsupportedClass) {
		t.Errorf("tableV on block trace = %v, want ErrUnsupportedClass", err)
	}
	if err := CheckSection("nonsense", trace.ClassLogical); err == nil || errors.Is(err, ErrUnsupportedClass) {
		t.Errorf("unknown section = %v, want a plain unknown-section error", err)
	}
}

// TestAnalyzeClassedGate puts a real block-class adapter through the
// logical battery's class gate and demands the typed refusal, then
// confirms a logical source passes the gate and analyzes.
func TestAnalyzeClassedGate(t *testing.T) {
	src, err := adapt.NewSource(adapt.FormatBlockCSV, strings.NewReader(
		"1000,host,0,Read,0,4096\n2000,host,0,Write,4096,4096\n"))
	if err != nil {
		t.Fatal(err)
	}
	err = LogicalMetrics.Check(src.Class())
	if !errors.Is(err, ErrUnsupportedClass) {
		t.Fatalf("LogicalMetrics.Check(block source) = %v, want ErrUnsupportedClass", err)
	}
	var uce *UnsupportedClassError
	if !errors.As(err, &uce) || uce.Class != trace.ClassBlock {
		t.Fatalf("error %v does not carry ClassBlock", err)
	}

	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, User: 1, Mode: trace.ReadOnly, Size: 100},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 100},
	}
	if err := LogicalMetrics.Check(trace.ClassLogical); err != nil {
		t.Fatalf("LogicalMetrics.Check(logical source) = %v", err)
	}
	an, err := AnalyzeSource(trace.NewSliceSource(events), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Overall.Counts.Total != 2 {
		t.Fatalf("analysis saw %d events, want 2", an.Overall.Counts.Total)
	}
}
