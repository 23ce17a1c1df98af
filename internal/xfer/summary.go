package xfer

import "bsdtrace/internal/trace"

// Summary is the transfer-level digest of one tape: the numbers Table VI
// and VII's discussion rests on (how much data moved, how fast, in which
// direction), computable for any trace class. Where the Section-5
// analyzer interprets the logical structure between opens and closes, a
// Summary deliberately uses none of it, so it is the headline block a
// report can always render — including for foreign block and page traces
// whose open/close events are adapter scaffolding.
type Summary struct {
	// Duration is the time of the last tape operation.
	Duration trace.Time
	// Requests counts transfers by direction (exec reads count as
	// reads); Bytes* are the corresponding data volumes.
	ReadRequests  int64
	WriteRequests int64
	BytesRead     int64
	BytesWritten  int64
	// Execs counts synthesized whole-file exec reads among the reads.
	Execs int64
	// Purges counts data-death operations (unlinks, truncations,
	// overwriting creates).
	Purges int64
	// Files is the number of distinct files transferred to or from.
	Files int64
	// MaxRequest is the largest single transfer.
	MaxRequest int64
	// Unclosed is carried over from the tape: opens still outstanding at
	// the end of the trace.
	Unclosed int
}

// Requests returns the total transfer count.
func (s *Summary) Requests() int64 { return s.ReadRequests + s.WriteRequests }

// BytesTransferred returns the total data volume.
func (s *Summary) BytesTransferred() int64 { return s.BytesRead + s.BytesWritten }

// Throughput returns bytes per second over the tape's duration, or 0 for
// an instantaneous tape.
func (s *Summary) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.BytesTransferred()) / s.Duration.Seconds()
}

// RequestRate returns transfers per second over the tape's duration, or
// 0 for an instantaneous tape.
func (s *Summary) RequestRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Requests()) / s.Duration.Seconds()
}

// WriteFraction returns the fraction of bytes moved that were writes.
func (s *Summary) WriteFraction() float64 {
	if t := s.BytesTransferred(); t > 0 {
		return float64(s.BytesWritten) / float64(t)
	}
	return 0
}

// Summarize digests a tape. The tape is read-only throughout, so
// summarizing is safe alongside concurrent replays.
func Summarize(t *Tape) Summary {
	var s Summary
	s.Unclosed = t.Unclosed
	if n := len(t.Ops); n > 0 {
		s.Duration = t.Ops[n-1].Time
	}
	seen := make([]bool, len(t.Files))
	for _, op := range t.Ops {
		switch op.Kind {
		case OpPurge:
			s.Purges++
		case OpTransfer, OpExec:
			tr := t.Transfers[op.Ref]
			if op.Kind == OpExec {
				s.Execs++
			}
			if tr.Write {
				s.WriteRequests++
				s.BytesWritten += tr.Length
			} else {
				s.ReadRequests++
				s.BytesRead += tr.Length
			}
			if tr.Length > s.MaxRequest {
				s.MaxRequest = tr.Length
			}
			if f := t.Slots[op.Ref]; !seen[f] {
				seen[f] = true
				s.Files++
			}
		}
	}
	return s
}
