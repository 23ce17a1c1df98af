package trace

import "io"

// Source is a pull-stream of events in non-decreasing time order. Next
// returns io.EOF at a clean end of stream. *Reader satisfies Source, so
// any binary trace file can be consumed as a stream, and MergeSource
// combines several Sources into one without materializing any of them.
//
// Source is the seam between the streaming halves of the repository: the
// workload generator emits shard streams, MergeSource interleaves them,
// and the analyzer and tape builder consume the merged stream one event
// at a time, so no stage ever needs the whole trace in memory.
type Source interface {
	Next() (Event, error)
}

// Compile-time check: a binary trace reader is a Source.
var _ Source = (*Reader)(nil)

// SliceSource adapts an in-memory event slice to a Source. It never
// returns an error other than io.EOF.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource returns a Source that yields events in order.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next returns the next event or io.EOF.
func (s *SliceSource) Next() (Event, error) {
	if s.pos >= len(s.events) {
		return Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// ReadSource drains a Source into memory. It is the streaming analogue of
// Reader.ReadAll, for tests and small traces.
func ReadSource(src Source) ([]Event, error) {
	var out []Event
	buf := GetBatch()
	defer PutBatch(buf)
	for {
		n, err := ReadBatch(src, buf)
		out = append(out, buf[:n]...)
		if n == 0 {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
	}
}

// FuncSource adapts a Next-shaped function to a Source.
type FuncSource func() (Event, error)

// Next calls the function.
func (f FuncSource) Next() (Event, error) { return f() }

// WindowSource yields the sub-trace of src in [from, to), fixing up the
// dangling references that cutting a live stream creates: seeks and
// closes whose open fell before the window are dropped (their open ids
// are unknown inside the window, exactly as if the tracer had started at
// that moment), and times are rebased so the window starts at zero. It
// holds only the set of opens seen inside the window, not the events.
//
// Windowing is how peak-hour analyses are carved from long traces; the
// paper's measurements distinguish "the busiest part of the work week"
// from whole-trace averages the same way.
func WindowSource(src Source, from, to Time) Source {
	open := make(map[OpenID]bool)
	return FuncSource(func() (Event, error) {
		for {
			e, err := src.Next()
			if err != nil {
				return Event{}, err
			}
			if e.Time < from {
				continue
			}
			if e.Time >= to {
				// Sources are time-ordered: nothing after this point
				// can fall inside the window.
				return Event{}, io.EOF
			}
			switch e.Kind {
			case KindCreate, KindOpen:
				open[e.OpenID] = true
			case KindClose:
				if !open[e.OpenID] {
					continue // opened before the window
				}
				delete(open, e.OpenID)
			case KindSeek:
				if !open[e.OpenID] {
					continue
				}
			}
			e.Time -= from
			return e, nil
		}
	})
}
