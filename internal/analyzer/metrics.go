package analyzer

import (
	"errors"
	"fmt"
	"strings"

	"bsdtrace/internal/trace"
)

// The paper's metric battery splits along the event vocabulary it needs.
// The logical metrics (Tables III-V, Figures 1-4, the §3.1 intervals, the
// sharing extension) interpret opens, closes, and the structure between
// them: open durations, access classes, whole-file sequentiality, file
// lifetimes. The transfer metrics (Tables VI-VII) only need the
// reconstructed block traffic. A foreign block or page trace re-encoded
// through the adapt package carries real transfers but fabricated
// open/close structure — every "open" is a single I/O request — so
// running a logical metric over it would produce numbers that look like
// the paper's tables and mean nothing. Metric sets make that distinction
// checkable: each set declares the trace classes whose semantics it
// respects, and consumers gate rendering on Check.

// ErrUnsupportedClass is the sentinel wrapped by every class-gating
// failure: the requested metric does not carry its intended meaning for
// the trace class at hand.
var ErrUnsupportedClass = errors.New("metric not supported for trace class")

// UnsupportedClassError reports which metric rejected which class.
// It unwraps to ErrUnsupportedClass.
type UnsupportedClassError struct {
	// Metric is the metric-set or section name that was requested.
	Metric string
	// Class is the class of the offending trace.
	Class trace.Class
}

func (e *UnsupportedClassError) Error() string {
	return fmt.Sprintf("analyzer: %s: %v (trace class %q has no %s semantics)",
		e.Metric, ErrUnsupportedClass, e.Class, e.Metric)
}

func (e *UnsupportedClassError) Unwrap() error { return ErrUnsupportedClass }

// MetricSet names one half of the battery: the report sections it owns
// and the trace classes whose semantics those sections respect.
type MetricSet struct {
	// Name identifies the set in error messages.
	Name string
	// Sections lists the report/CLI section names the set owns, in
	// rendering order. Matching is case-insensitive.
	Sections []string
	// Classes lists the trace classes the set supports.
	Classes []trace.Class
}

// LogicalMetrics is the open/close battery: it requires real logical
// structure and therefore accepts only logical traces.
var LogicalMetrics = MetricSet{
	Name: "logical metrics",
	Sections: []string{
		"tableIII", "tableIV", "tableV", "intervals", "sharing",
		"fig1", "fig2", "fig3", "fig4",
	},
	Classes: []trace.Class{trace.ClassLogical},
}

// TransferMetrics is the block-traffic battery: rates and cache sweeps
// are meaningful for any class, since every adapter produces faithful
// transfers.
var TransferMetrics = MetricSet{
	Name: "transfer metrics",
	Sections: []string{
		"transfers", "tableVI", "tableVII",
	},
	Classes: []trace.Class{trace.ClassLogical, trace.ClassBlock, trace.ClassPage},
}

// Supports reports whether the set's metrics are meaningful for class c.
func (m *MetricSet) Supports(c trace.Class) bool {
	for _, have := range m.Classes {
		if have == c {
			return true
		}
	}
	return false
}

// Check returns nil when the set supports class c, and an
// *UnsupportedClassError otherwise.
func (m *MetricSet) Check(c trace.Class) error {
	if m.Supports(c) {
		return nil
	}
	return &UnsupportedClassError{Metric: m.Name, Class: c}
}

// HasSection reports whether the set owns the named report section.
func (m *MetricSet) HasSection(name string) bool {
	for _, s := range m.Sections {
		if strings.EqualFold(s, name) {
			return true
		}
	}
	return false
}

// SectionMetrics returns the metric set owning the named section, or nil
// when no set claims it.
func SectionMetrics(section string) *MetricSet {
	switch {
	case LogicalMetrics.HasSection(section):
		return &LogicalMetrics
	case TransferMetrics.HasSection(section):
		return &TransferMetrics
	}
	return nil
}

// CheckSection gates one named section against a trace class: nil when
// the owning set supports the class, a typed *UnsupportedClassError when
// it does not, and an unknown-section error when no set owns the name.
func CheckSection(section string, c trace.Class) error {
	m := SectionMetrics(section)
	if m == nil {
		return fmt.Errorf("analyzer: unknown section %q", section)
	}
	if m.Supports(c) {
		return nil
	}
	return &UnsupportedClassError{Metric: section, Class: c}
}
