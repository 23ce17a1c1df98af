package xfer

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bsdtrace/internal/kernel"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// collect runs events through a scanner and gathers everything.
type collected struct {
	transfers []Transfer
	opens     []OpenSummary
	deaths    []FileDeath
	gaps      []trace.Time
	unclosed  int
	errs      []error
}

func collect(t *testing.T, events []trace.Event) collected {
	t.Helper()
	var c collected
	s := NewScanner()
	s.OnTransfer = func(x Transfer) { c.transfers = append(c.transfers, x) }
	s.OnOpenEnd = func(o OpenSummary) { c.opens = append(c.opens, o) }
	s.OnDeath = func(d FileDeath) { c.deaths = append(c.deaths, d) }
	s.OnEventGap = func(g trace.Time) { c.gaps = append(c.gaps, g) }
	for _, e := range events {
		s.Feed(e)
	}
	c.unclosed = s.Finish()
	c.errs = s.Errs()
	return c
}

func TestWholeFileRead(t *testing.T) {
	events := []trace.Event{
		{Time: 100, Kind: trace.KindOpen, OpenID: 1, File: 5, User: 2, Mode: trace.ReadOnly, Size: 3000},
		{Time: 200, Kind: trace.KindClose, OpenID: 1, NewPos: 3000},
	}
	c := collect(t, events)
	if len(c.errs) != 0 {
		t.Fatalf("errs: %v", c.errs)
	}
	want := []Transfer{{
		Time: 200, Start: 100, File: 5, User: 2, OpenID: 1,
		Offset: 0, Length: 3000, Write: false, Mode: trace.ReadOnly,
	}}
	if !reflect.DeepEqual(c.transfers, want) {
		t.Errorf("transfers = %+v", c.transfers)
	}
	o := c.opens[0]
	if !o.WholeFile || !o.Sequential || o.Runs != 1 || o.Bytes != 3000 {
		t.Errorf("summary = %+v", o)
	}
	if o.SizeAtClose != 3000 {
		t.Errorf("SizeAtClose = %d", o.SizeAtClose)
	}
}

func TestPartialReadNotWholeFile(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 5, Mode: trace.ReadOnly, Size: 3000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 1000},
	}
	c := collect(t, events)
	o := c.opens[0]
	if o.WholeFile {
		t.Errorf("partial read classified whole-file")
	}
	if !o.Sequential {
		t.Errorf("partial sequential read not sequential")
	}
}

func TestSeekAppendIsSequentialNotWholeFile(t *testing.T) {
	// The mailbox-append idiom: open, seek to end, write, close.
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 9, Mode: trace.WriteOnly, Size: 5000},
		{Time: 5, Kind: trace.KindSeek, OpenID: 1, OldPos: 0, NewPos: 5000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 5600},
	}
	c := collect(t, events)
	if len(c.transfers) != 1 {
		t.Fatalf("transfers = %+v", c.transfers)
	}
	x := c.transfers[0]
	if x.Offset != 5000 || x.Length != 600 || !x.Write {
		t.Errorf("transfer = %+v", x)
	}
	o := c.opens[0]
	if o.WholeFile || !o.Sequential || o.Runs != 1 || o.Seeks != 1 {
		t.Errorf("summary = %+v", o)
	}
	if o.SizeAtClose != 5600 {
		t.Errorf("SizeAtClose = %d, want extended 5600", o.SizeAtClose)
	}
}

func TestMultiRunNotSequential(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 9, Mode: trace.ReadOnly, Size: 10000},
		{Time: 5, Kind: trace.KindSeek, OpenID: 1, OldPos: 1000, NewPos: 8000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 9000},
	}
	c := collect(t, events)
	if len(c.transfers) != 2 {
		t.Fatalf("transfers = %+v", c.transfers)
	}
	if c.transfers[0].Offset != 0 || c.transfers[0].Length != 1000 {
		t.Errorf("run 1 = %+v", c.transfers[0])
	}
	if c.transfers[1].Offset != 8000 || c.transfers[1].Length != 1000 {
		t.Errorf("run 2 = %+v", c.transfers[1])
	}
	o := c.opens[0]
	if o.Sequential || o.WholeFile || o.Runs != 2 || o.Bytes != 2000 {
		t.Errorf("summary = %+v", o)
	}
}

func TestTrailingSeekKeepsSequential(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 9, Mode: trace.ReadOnly, Size: 10000},
		{Time: 5, Kind: trace.KindSeek, OpenID: 1, OldPos: 2000, NewPos: 9000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 9000},
	}
	c := collect(t, events)
	o := c.opens[0]
	if !o.Sequential || o.Runs != 1 {
		t.Errorf("trailing seek broke sequentiality: %+v", o)
	}
}

func TestCreateWholeFileWrite(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindCreate, OpenID: 1, File: 3, User: 1, Mode: trace.WriteOnly},
		{Time: 50, Kind: trace.KindClose, OpenID: 1, NewPos: 2048},
	}
	c := collect(t, events)
	o := c.opens[0]
	if !o.WholeFile || !o.Created || o.Bytes != 2048 || o.SizeAtClose != 2048 {
		t.Errorf("summary = %+v", o)
	}
	if !c.transfers[0].Write {
		t.Errorf("create write classified as read")
	}
}

func TestZeroByteOpenClose(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 3, Mode: trace.ReadOnly, Size: 100},
		{Time: 1, Kind: trace.KindClose, OpenID: 1, NewPos: 0},
	}
	c := collect(t, events)
	if len(c.transfers) != 0 {
		t.Errorf("zero-byte open emitted transfers: %+v", c.transfers)
	}
	o := c.opens[0]
	if o.Runs != 0 || o.Bytes != 0 || o.WholeFile {
		t.Errorf("summary = %+v", o)
	}
	if !o.Sequential {
		t.Errorf("empty access should count as sequential")
	}
}

func TestReadWriteDirectionInference(t *testing.T) {
	events := []trace.Event{
		// Open read-write on a 1000-byte file; read it, then append.
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 3, Mode: trace.ReadWrite, Size: 1000},
		{Time: 5, Kind: trace.KindSeek, OpenID: 1, OldPos: 1000, NewPos: 1000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 1500},
	}
	c := collect(t, events)
	if len(c.transfers) != 2 {
		t.Fatalf("transfers = %+v", c.transfers)
	}
	if c.transfers[0].Write {
		t.Errorf("in-bounds rw run classified write: %+v", c.transfers[0])
	}
	if !c.transfers[1].Write {
		t.Errorf("extending rw run classified read: %+v", c.transfers[1])
	}
}

func TestDeaths(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindCreate, OpenID: 1, File: 3, Mode: trace.WriteOnly},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 500},
		// Overwrite by re-create.
		{Time: 100, Kind: trace.KindCreate, OpenID: 2, File: 3, Mode: trace.WriteOnly},
		{Time: 110, Kind: trace.KindClose, OpenID: 2, NewPos: 700},
		// Truncate to zero.
		{Time: 200, Kind: trace.KindTruncate, File: 3, Size: 0},
		// Unlink.
		{Time: 300, Kind: trace.KindUnlink, File: 3},
	}
	c := collect(t, events)
	if len(c.deaths) != 3 {
		t.Fatalf("deaths = %+v", c.deaths)
	}
	if c.deaths[0].Reason != "overwrite" || c.deaths[0].Time != 100 {
		t.Errorf("death 0 = %+v", c.deaths[0])
	}
	if c.deaths[1].Reason != "truncate" || c.deaths[1].Time != 200 {
		t.Errorf("death 1 = %+v", c.deaths[1])
	}
	if c.deaths[2].Reason != "unlink" || c.deaths[2].Time != 300 {
		t.Errorf("death 2 = %+v", c.deaths[2])
	}
}

func TestTruncateToZeroOfEmptyFileNoDeath(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindCreate, OpenID: 1, File: 3, Mode: trace.WriteOnly},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 0},
		{Time: 20, Kind: trace.KindTruncate, File: 3, Size: 0},
	}
	c := collect(t, events)
	if len(c.deaths) != 0 {
		t.Errorf("empty file truncation reported death: %+v", c.deaths)
	}
}

func TestEventGaps(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 3, Mode: trace.ReadOnly, Size: 100},
		{Time: 300, Kind: trace.KindSeek, OpenID: 1, OldPos: 50, NewPos: 60},
		{Time: 1000, Kind: trace.KindClose, OpenID: 1, NewPos: 100},
	}
	c := collect(t, events)
	want := []trace.Time{300, 700}
	if !reflect.DeepEqual(c.gaps, want) {
		t.Errorf("gaps = %v, want %v", c.gaps, want)
	}
}

func TestUnclosedOpens(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 3, Mode: trace.ReadOnly, Size: 100},
		{Time: 5, Kind: trace.KindSeek, OpenID: 1, OldPos: 40, NewPos: 50},
	}
	c := collect(t, events)
	if c.unclosed != 1 {
		t.Errorf("unclosed = %d, want 1", c.unclosed)
	}
	// The partial run up to the seek was still emitted.
	if len(c.transfers) != 1 || c.transfers[0].Length != 40 {
		t.Errorf("transfers = %+v", c.transfers)
	}
	if len(c.opens) != 0 {
		t.Errorf("unclosed open produced a summary")
	}
}

func TestScannerErrors(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindClose, OpenID: 9, NewPos: 0},
		{Time: 1, Kind: trace.KindSeek, OpenID: 9, OldPos: 0, NewPos: 5},
		{Time: 2, Kind: trace.KindOpen, OpenID: 1, File: 1, Mode: trace.ReadOnly},
		{Time: 3, Kind: trace.KindOpen, OpenID: 1, File: 2, Mode: trace.ReadOnly},
	}
	c := collect(t, events)
	if len(c.errs) != 3 {
		t.Errorf("errs = %v, want 3", c.errs)
	}
}

// scan runs a complete trace through a scanner and returns the number
// of unclosed opens discarded at the end.
func scan(events []trace.Event, onTransfer func(Transfer)) (unclosed int, errs []error) {
	s := NewScanner()
	s.OnTransfer = onTransfer
	for _, e := range events {
		s.Feed(e)
	}
	return s.Finish(), s.Errs()
}

func TestScanHelper(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 3, Mode: trace.ReadOnly, Size: 100},
		{Time: 5, Kind: trace.KindClose, OpenID: 1, NewPos: 100},
	}
	var n int
	unclosed, errs := scan(events, func(Transfer) { n++ })
	if unclosed != 0 || len(errs) != 0 || n != 1 {
		t.Errorf("scan = %d %v, n=%d", unclosed, errs, n)
	}
}

// Integration: transfers reconstructed from a kernel-produced trace match
// the byte counts the kernel actually performed. This closes the loop on
// the paper's claim that positions alone identify the accessed ranges.
func TestReconstructionMatchesKernel(t *testing.T) {
	var events []trace.Event
	var now trace.Time
	k := kernel.New(vfs.New(), func() trace.Time { return now }, func(e trace.Event) { events = append(events, e) })
	p := k.NewProc(1)

	// A writing pass, a reading pass, a seek-heavy pass.
	fd, err := p.Create("/data", trace.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	p.Write(fd, 10000)
	now += 100
	p.Close(fd)

	fd, _ = p.Open("/data", trace.ReadOnly)
	p.Read(fd, 4000)
	now += 100
	p.Seek(fd, 8000)
	p.Read(fd, 2000)
	now += 100
	p.Close(fd)

	fd, _ = p.Open("/data", trace.ReadWrite)
	p.Read(fd, 1000)
	now += 100
	p.SeekEnd(fd)
	p.Write(fd, 500)
	now += 100
	p.Close(fd)

	var readBytes, writeBytes int64
	unclosed, errs := scan(events, func(x Transfer) {
		if x.Write {
			writeBytes += x.Length
		} else {
			readBytes += x.Length
		}
	})
	if unclosed != 0 || len(errs) != 0 {
		t.Fatalf("unclosed=%d errs=%v", unclosed, errs)
	}
	if writeBytes != k.Stats.BytesWritten {
		t.Errorf("reconstructed writes = %d, kernel wrote %d", writeBytes, k.Stats.BytesWritten)
	}
	if readBytes != k.Stats.BytesRead {
		t.Errorf("reconstructed reads = %d, kernel read %d", readBytes, k.Stats.BytesRead)
	}
}

// Property: for ANY random sequence of kernel operations, the transfers
// reconstructed from the position-only trace account for exactly the
// bytes the kernel moved. This is the paper's central inference validated
// mechanically.
func TestReconstructionPropertyRandomOps(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var events []trace.Event
		var now trace.Time
		k := kernel.New(vfs.New(), func() trace.Time { return now },
			func(e trace.Event) { events = append(events, e) })
		p := k.NewProc(1)
		paths := []string{"/a", "/b", "/c"}
		type openFD struct {
			fd       int
			canRead  bool
			canWrite bool
		}
		var fds []openFD
		for _, op := range opsRaw {
			now += trace.Time(rng.Intn(500))
			switch op % 7 {
			case 0: // create
				if fd, err := p.Create(paths[rng.Intn(len(paths))], trace.WriteOnly); err == nil {
					fds = append(fds, openFD{fd: fd, canWrite: true})
				}
			case 1: // open, any mode
				mode := trace.Mode(rng.Intn(3))
				if fd, err := p.Open(paths[rng.Intn(len(paths))], mode); err == nil {
					fds = append(fds, openFD{fd: fd, canRead: mode.CanRead(), canWrite: mode.CanWrite()})
				}
			case 2: // read
				if len(fds) > 0 {
					f := fds[rng.Intn(len(fds))]
					if f.canRead {
						p.Read(f.fd, int64(rng.Intn(10000)))
					}
				}
			case 3: // write
				if len(fds) > 0 {
					f := fds[rng.Intn(len(fds))]
					if f.canWrite {
						p.Write(f.fd, int64(rng.Intn(10000)))
					}
				}
			case 4: // seek
				if len(fds) > 0 {
					p.Seek(fds[rng.Intn(len(fds))].fd, int64(rng.Intn(20000)))
				}
			case 5: // close
				if len(fds) > 0 {
					i := rng.Intn(len(fds))
					p.Close(fds[i].fd)
					fds = append(fds[:i], fds[i+1:]...)
				}
			case 6: // unlink or truncate
				path := paths[rng.Intn(len(paths))]
				if rng.Intn(2) == 0 {
					p.Unlink(path)
				} else {
					p.Truncate(path, int64(rng.Intn(5000)))
				}
			}
		}
		p.CloseAll()

		// Reconstruct. Read-write opens have ambiguous direction, so
		// compare the total; for RO/WO opens compare per direction.
		var total, roBytes, woBytes int64
		_, errs := scan(events, func(x Transfer) {
			total += x.Length
			switch x.Mode {
			case trace.ReadOnly:
				roBytes += x.Length
			case trace.WriteOnly:
				woBytes += x.Length
			}
		})
		if len(errs) != 0 {
			return false
		}
		if total != k.Stats.BytesRead+k.Stats.BytesWritten {
			return false
		}
		// Each direction-pure class cannot exceed the kernel's totals.
		return roBytes <= k.Stats.BytesRead && woBytes <= k.Stats.BytesWritten
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
