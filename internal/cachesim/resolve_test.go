package cachesim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/xfer"
)

// fileBlock identifies one block of one file.
type fileBlock struct {
	file trace.FileID
	idx  int64
}

// refResolved is the map-based reference resolution: files are numbered
// in the order their first block appears, and opFile names a purge's
// file in that numbering (-1 when the file has no blocks).
type refResolved struct {
	resolved
	files  []trace.FileID
	opFile []int32
}

// resolveTapeRef is the original hash-based resolver, kept as the
// oracle for resolveTape: one map lookup per block access.
func resolveTapeRef(t *xfer.Tape, blockSize int64) *refResolved {
	var nAccess int64
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		nAccess += (tr.End()-1)/blockSize - tr.Offset/blockSize + 1
	}
	r := &refResolved{resolved: resolved{
		blockSize: blockSize,
		accessOff: make([]int64, len(t.Transfers)+1),
		accessIDs: make([]int32, 0, nAccess),
	}}
	ids := make(map[fileBlock]int32)
	fileSlots := make(map[trace.FileID]int32)
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		first := tr.Offset / blockSize
		last := (tr.End() - 1) / blockSize
		for idx := first; idx <= last; idx++ {
			key := fileBlock{file: tr.File, idx: idx}
			id, ok := ids[key]
			if !ok {
				fs, ok := fileSlots[tr.File]
				if !ok {
					fs = int32(len(r.fileBlocks))
					fileSlots[tr.File] = fs
					r.fileBlocks = append(r.fileBlocks, nil)
					r.files = append(r.files, tr.File)
				}
				id = int32(len(r.blockIdx))
				ids[key] = id
				r.blockIdx = append(r.blockIdx, idx)
				r.fileBlocks[fs] = append(r.fileBlocks[fs], id)
			}
			r.accessIDs = append(r.accessIDs, id)
		}
		r.accessOff[i+1] = int64(len(r.accessIDs))
	}
	for _, fb := range r.fileBlocks {
		sort.Slice(fb, func(a, b int) bool { return r.blockIdx[fb[a]] < r.blockIdx[fb[b]] })
	}
	r.opFile = make([]int32, len(t.Ops))
	for i := range t.Ops {
		r.opFile[i] = -1
		if t.Ops[i].Kind == xfer.OpPurge {
			if fs, ok := fileSlots[t.Files[t.Ops[i].Ref]]; ok {
				r.opFile[i] = fs
			}
		}
	}
	return r
}

// diffResolved compares a slot-table resolution with the reference.
// Block IDs, block indices and the flattened accesses must be identical;
// per-file block lists must match once the reference's file numbering
// is mapped to the tape's slots, and every purge must name the same
// file (or, in both, a file with no blocks). It returns "" on a match.
func diffResolved(t *xfer.Tape, got *resolved, want *refResolved) string {
	switch {
	case got.blockSize != want.blockSize:
		return fmt.Sprintf("blockSize %d, want %d", got.blockSize, want.blockSize)
	case !reflect.DeepEqual(got.blockIdx, want.blockIdx):
		return fmt.Sprintf("blockIdx differs: %d blocks, want %d", len(got.blockIdx), len(want.blockIdx))
	case !reflect.DeepEqual(got.accessOff, want.accessOff):
		return "accessOff differs"
	case !reflect.DeepEqual(got.accessIDs, want.accessIDs):
		return "accessIDs differ"
	case len(got.fileBlocks) != len(t.Files):
		return fmt.Sprintf("%d file block lists for %d slots", len(got.fileBlocks), len(t.Files))
	}
	refSlot := make(map[trace.FileID]int32, len(want.files))
	for fs, f := range want.files {
		refSlot[f] = int32(fs)
	}
	withBlocks := 0
	for s, fb := range got.fileBlocks {
		fs, ok := refSlot[t.Files[s]]
		if !ok {
			if len(fb) != 0 {
				return fmt.Sprintf("slot %d (file %d) has %d blocks, reference none", s, t.Files[s], len(fb))
			}
			continue
		}
		withBlocks++
		if !slices.Equal(fb, want.fileBlocks[fs]) {
			return fmt.Sprintf("slot %d (file %d) blocks %v, want %v", s, t.Files[s], fb, want.fileBlocks[fs])
		}
	}
	if withBlocks != len(want.fileBlocks) {
		return fmt.Sprintf("%d files with blocks, reference %d", withBlocks, len(want.fileBlocks))
	}
	for i, op := range t.Ops {
		if op.Kind != xfer.OpPurge {
			continue
		}
		fs := want.opFile[i]
		if has := len(got.fileBlocks[op.Ref]) > 0; has != (fs >= 0) || has && want.files[fs] != t.Files[op.Ref] {
			return fmt.Sprintf("op %d purges slot %d (file %d), reference file slot %d", i, op.Ref, t.Files[op.Ref], fs)
		}
	}
	return ""
}

func checkResolve(t *testing.T, tape *xfer.Tape, blockSize int64) {
	t.Helper()
	if d := diffResolved(tape, resolveTape(tape, blockSize), resolveTapeRef(tape, blockSize)); d != "" {
		t.Errorf("block size %d: %s", blockSize, d)
	}
}

// fixtureTape builds a tape from the events a foreign-trace adapter
// yields for one committed fixture, up to its terminal error if the
// fixture is a malformed one.
func fixtureTape(t *testing.T, file string, format adapt.Format) *xfer.Tape {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "trace", "adapt", "testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := adapt.NewSource(format, f)
	if err != nil {
		t.Fatal(err)
	}
	b := xfer.NewTapeBuilder()
	for {
		e, err := src.Next()
		if err != nil {
			break
		}
		b.Add(e)
	}
	tape, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// sparseTape reads and writes a few blocks of several files at offsets
// near 2^40 bytes, interleaved with small dense files, and returns the
// tape with the number of distinct 4-kbyte blocks it touches.
func sparseTape(t testing.TB) (*xfer.Tape, int64) {
	var events []trace.Event
	var now trace.Time
	id := trace.OpenID(0)
	access := func(f trace.FileID, mode trace.Mode, off, n int64) {
		id++
		now += trace.Millisecond
		events = append(events,
			trace.Event{Time: now, Kind: trace.KindOpen, OpenID: id, File: f, User: 1, Mode: mode, Size: 1 << 41},
			trace.Event{Time: now, Kind: trace.KindSeek, OpenID: id, NewPos: off},
			trace.Event{Time: now, Kind: trace.KindClose, OpenID: id, NewPos: off + n})
	}
	const far = int64(1) << 40
	var blocks int64
	for f := trace.FileID(1); f <= 4; f++ {
		// Two 16-block runs far apart in one file, each read twice.
		for _, off := range []int64{far - int64(f)<<30, far + int64(f)<<20} {
			access(f, trace.ReadOnly, off, 16<<12)
			access(f, trace.ReadOnly, off, 16<<12)
			blocks += 16
		}
		// A small dense file between them.
		access(100+f, trace.WriteOnly, 0, 8<<12)
		blocks += 8
	}
	events = append(events, trace.Event{Time: now + 1, Kind: trace.KindUnlink, File: 2},
		trace.Event{Time: now + 2, Kind: trace.KindTruncate, File: 3, Size: far})
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	return tape, blocks
}

// TestResolveMatchesMapReference is the differential oracle for the
// slot-table resolver: on the paper's machine traces at every paper
// block size, on every committed foreign-adapter fixture, and on a
// synthetic tape with offsets near 2^40 bytes, resolveTape must agree
// with the map-based reference up to file slot numbering.
func TestResolveMatchesMapReference(t *testing.T) {
	t.Run("profiles", func(t *testing.T) {
		for _, name := range []string{"A5", "E3", "C4"} {
			tape := profileTape(t, name)
			for _, bs := range PaperBlockSizes() {
				t.Run(fmt.Sprintf("%s/%d", name, bs), func(t *testing.T) { checkResolve(t, tape, bs) })
			}
		}
	})
	t.Run("fixtures", func(t *testing.T) {
		// Fixture names start with their format's sample source.
		formats := map[string]adapt.Format{"msr": adapt.FormatBlockCSV, "zipf": adapt.FormatPageRef, "strace": adapt.FormatStrace}
		files, err := filepath.Glob(filepath.Join("..", "trace", "adapt", "testdata", "*-*.*"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[adapt.Format]bool{}
		for _, path := range files {
			file := filepath.Base(path)
			if filepath.Ext(file) == ".json" {
				continue
			}
			prefix, _, _ := strings.Cut(file, "-")
			format, ok := formats[prefix]
			if !ok {
				t.Fatalf("fixture %s: unknown format prefix", file)
			}
			seen[format] = true
			t.Run(file, func(t *testing.T) {
				checkResolve(t, fixtureTape(t, file, format), 4096)
			})
		}
		if len(seen) != len(formats) {
			t.Fatalf("fixtures cover %d formats, want %d", len(seen), len(formats))
		}
	})
	t.Run("sparse", func(t *testing.T) {
		tape, blocks := sparseTape(t)
		for _, bs := range []int64{1024, 4096} {
			checkResolve(t, tape, bs)
		}
		// Allocation follows the blocks touched, not the 2^40-byte
		// extent: a flat table over it would be a gigabyte.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := resolveTape(tape, 4096)
		runtime.ReadMemStats(&after)
		if int64(r.nBlocks()) != blocks {
			t.Fatalf("%d blocks resolved, want %d", r.nBlocks(), blocks)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+1024*blocks); got > limit {
			t.Errorf("resolving %d blocks allocated %d bytes, want at most %d", blocks, got, limit)
		}
	})
}

// FuzzResolveTape builds a multi-file tape from the input — each
// three-byte group is one read, write, truncate, unlink or exec, at a
// small dense offset or (high bit) a sparse one up to 2^40 bytes — and
// checks resolveTape against the map reference at three block sizes.
func FuzzResolveTape(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x04, 0x09, 0x90, 0x08, 0x22, 0x03, 0x01})
	f.Add([]byte{0x03, 0xff, 0x20, 0x0b, 0x81, 0x40, 0x33, 0x00, 0x00, 0x2b, 0x02, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		var events []trace.Event
		var now trace.Time
		id := trace.OpenID(0)
		for i := 0; i+2 < len(data); i += 3 {
			file := trace.FileID(data[i]&7) + 1
			off := int64(data[i+1]) * 700
			if data[i+1]&0x80 != 0 {
				off = int64(data[i+1]&0x7f) << 33
			}
			n := (int64(data[i+2]) + 1) * 300
			now += trace.Millisecond
			switch data[i] >> 3 & 7 {
			case 0, 1, 2, 3:
				mode := trace.ReadOnly
				if data[i]>>3&1 == 1 {
					mode = trace.WriteOnly
				}
				id++
				events = append(events,
					trace.Event{Time: now, Kind: trace.KindOpen, OpenID: id, File: file, User: 1, Mode: mode, Size: off + n},
					trace.Event{Time: now, Kind: trace.KindSeek, OpenID: id, NewPos: off},
					trace.Event{Time: now, Kind: trace.KindClose, OpenID: id, NewPos: off + n})
			case 4:
				events = append(events, trace.Event{Time: now, Kind: trace.KindTruncate, File: file, Size: off})
			case 5:
				events = append(events, trace.Event{Time: now, Kind: trace.KindUnlink, File: file})
			default:
				events = append(events, trace.Event{Time: now, Kind: trace.KindExec, File: file, User: 1, Size: n})
			}
		}
		tape, err := xfer.NewTape(events)
		if err != nil {
			t.Fatalf("built an invalid trace: %v", err)
		}
		for _, bs := range []int64{512, 3000, 32768} {
			checkResolve(t, tape, bs)
		}
	})
}

// BenchmarkResolveTape resolves the A5 tape (8 h, 2 h under -short),
// built before the timer, at 1, 4 and 32 kbytes.
func BenchmarkResolveTape(b *testing.B) {
	tape := profileTape(b, "A5")
	for _, bs := range []int64{1024, 4096, 32768} {
		b.Run(fmt.Sprintf("%dK", bs>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resolveTape(tape, bs)
			}
		})
	}
}
