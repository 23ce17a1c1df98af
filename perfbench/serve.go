package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bsdtrace/internal/trace"
)

// The serve workload: fstraced generating A5 for 8 simulated hours at
// user scale 4, paced as an open loop at servePace simulated seconds per
// wall second (5 s of wall time per run), streamed to b.procs clients.
const (
	serveDuration = 8 * time.Hour
	serveScale    = "4"
	servePace     = 5760.0
	// serveChunk records per stream chunk gives about 1800 chunks per
	// run, so the p99 chunk lag has well over ten samples beyond it.
	serveChunk = 256
	// serveRetain keeps every chunk of a run, so a client that joins
	// after /healthz still receives the stream from its first record.
	serveRetain = 1 << 16
)

// serveRef is the batch reference a served stream must reproduce: the
// records fstrace writes for the same profile, seed, scale and shards,
// and fsanalyze's report over that file.
type serveRef struct {
	records int64
	digest  uint64
	report  []byte
}

// serveRun is one daemon run as the clients and /stats saw it.
type serveRun struct {
	sample
	lags           []float64 // ms, one per chunk per client
	chunks         int64     // chunks the daemon sealed
	bytesPerRecord float64
	evictions      int64
	skipped        int64   // records the clients' readers skipped
	lateMS         float64 // end of stream minus its scheduled end
}

func (b *bench) serveArgs() []string {
	return []string{"-addr", "127.0.0.1:0", "-profile", "A5", "-seed", strconv.FormatInt(b.seed, 10),
		"-duration", serveDuration.String(), "-scale", serveScale, "-shards", strconv.Itoa(b.procs),
		"-pace", strconv.FormatFloat(servePace, 'g', -1, 64),
		"-checkpoint", strconv.Itoa(serveChunk), "-retain", strconv.Itoa(serveRetain)}
}

// serveSetup writes the batch reference with fstrace and fsanalyze. The
// file is named a5.trace so fsanalyze titles it "a5", as the daemon
// titles its report.
func (b *bench) serveSetup(ctx context.Context) (*serveRef, error) {
	path := filepath.Join(b.tmp, "a5.trace")
	_, err := runCmd(ctx, b.cli("fstrace"), []string{"-profile", "A5", "-seed", strconv.FormatInt(b.seed, 10),
		"-duration", serveDuration.String(), "-scale", serveScale, "-shards", strconv.Itoa(b.procs),
		"-q", "-o", path}, io.Discard)
	if !b.t.op(err) {
		return nil, err
	}
	var report bytes.Buffer
	if _, err := runCmd(ctx, b.cli("fsanalyze"), []string{path}, &report); !b.t.op(err) {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d eventDigest
	if err := d.source(f); !b.t.op(err) {
		return nil, err
	}
	return &serveRef{records: d.n, digest: d.sum(), report: report.Bytes()}, nil
}

// serveWorkload runs the daemon once per timed run and checks every
// client's records and the final report against the batch reference.
func (b *bench) serveWorkload() workloadRun {
	var ref *serveRef
	var p50, p99, late []float64
	minSamples := -1
	return workloadRun{
		setup: func(ctx context.Context) error {
			r, err := b.serveSetup(ctx)
			if err != nil {
				return err
			}
			if ref == nil {
				ref = r
				return nil
			}
			b.t.check(r.records != ref.records || r.digest != ref.digest || !bytes.Equal(r.report, ref.report),
				"serve reference differs across set-ups: %w", errMismatch)
			return nil
		},
		iter: func(ctx context.Context) (sample, error) {
			r, err := b.serveOnce(ctx, ref)
			if err != nil {
				return sample{}, err
			}
			p50 = append(p50, percentile(r.lags, 50))
			p99 = append(p99, percentile(r.lags, 99))
			late = append(late, r.lateMS)
			if minSamples < 0 || len(r.lags) < minSamples {
				minSamples = len(r.lags)
			}
			return r.sample, nil
		},
		finish: func(rec *record) {
			rec.Digest = fmt.Sprintf("%016x", ref.digest)
			rec.Extra["lag_p50_ms"] = metric{median(p50), "ms"}
			rec.Extra["lag_p99_ms"] = metric{median(p99), "ms"}
			rec.Extra["lag_samples"] = metric{float64(minSamples), "count"}
			rec.Extra["late_ms"] = metric{median(late), "ms"}
			rec.Extra["delivered_eps"] = rec.Metrics["events_per_s"]
		},
	}
}

// serveOnce starts fstraced on a loopback port the OS picks, streams the
// whole run to b.procs clients, fetches the final /stats and /report,
// and stops the daemon. wall_s runs from the daemon's start to its exit;
// cpu_s and peak_rss_mib are the daemon's. Every failure is tallied, and
// the daemon is killed and reaped on any early return.
func (b *bench) serveOnce(ctx context.Context, ref *serveRef) (serveRun, error) {
	var run serveRun
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stderr bytes.Buffer
	watch := &addrWatch{addr: make(chan string, 1)}
	cmd := newCmd(ctx, b.cli("fstraced"), b.serveArgs(), watch, &stderr)
	start := time.Now()
	if err := cmd.Start(); !b.t.op(err) {
		return run, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	running := true
	defer func() {
		if running {
			cancel()
			<-exited
		}
	}()
	fail := func(err error) (serveRun, error) {
		b.t.op(err)
		return run, err
	}

	var addr string
	select {
	case addr = <-watch.addr:
	case err := <-exited:
		running = false
		return fail(fmt.Errorf("fstraced exited before serving: %v", cmdError("fstraced", err, &stderr)))
	case <-time.After(10 * time.Second):
		return fail(fmt.Errorf("fstraced printed no serving address within 10s"))
	}
	// The daemon starts its pacing clock just before it prints the
	// address, so due times measured from here err by at most the pipe
	// latency, on the early side.
	t0 := time.Now()
	base := "http://" + addr
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	if _, err := get(ctx, hc, base+"/healthz"); err != nil {
		return fail(err)
	}
	b.t.op(nil)

	clients := make([]clientResult, b.procs)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i] = streamClient(ctx, hc, base, t0)
		}(i)
	}
	wg.Wait()
	var ends []time.Time
	run.eps = -1
	for i, c := range clients {
		if !b.t.op(c.err) {
			continue
		}
		b.t.check(c.records != ref.records || c.digest != ref.digest,
			"client %d decoded %d records (digest %016x), fstrace wrote %d (digest %016x): %w",
			i, c.records, c.digest, ref.records, ref.digest, errMismatch)
		b.t.check(c.skipped != 0, "client %d skipped %d records", i, c.skipped)
		run.skipped += c.skipped
		run.lags = append(run.lags, c.lags...)
		ends = append(ends, c.end)
		if run.eps < 0 || c.eps < run.eps {
			run.eps = c.eps
		}
	}
	if len(ends) == 0 {
		return run, fmt.Errorf("no stream client finished")
	}
	earliest := ends[0]
	for _, e := range ends[1:] {
		if e.Before(earliest) {
			earliest = e
		}
	}
	run.lateMS = ms(earliest.Sub(t0.Add(time.Duration(float64(serveDuration) / servePace))))

	st, err := finalStats(ctx, hc, base)
	if err != nil {
		return fail(err)
	}
	b.t.op(nil)
	run.chunks = st.Generation.ChunksSealed
	run.bytesPerRecord = float64(st.Generation.BytesSealed) / float64(st.Generation.RecordsSealed)
	run.evictions = int64(st.Metrics.Gauges["fstraced.stream.evictions"])
	b.t.check(run.evictions != 0, "fstraced evicted %d stream clients", run.evictions)
	b.t.check(st.Generation.RecordsSealed != ref.records, "fstraced sealed %d records, fstrace wrote %d: %w",
		st.Generation.RecordsSealed, ref.records, errMismatch)
	report, err := get(ctx, hc, base+"/report")
	if err != nil {
		return fail(err)
	}
	b.t.op(sameOutput("fstraced /report against fsanalyze", report, ref.report))

	tr.CloseIdleConnections()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fail(fmt.Errorf("stop fstraced: %v", err))
	}
	var exitErr error
	select {
	case exitErr = <-exited:
	case <-time.After(15 * time.Second):
		cancel()
		exitErr = <-exited
		if exitErr == nil {
			exitErr = fmt.Errorf("did not stop within 15s of SIGTERM")
		}
	}
	running = false
	run.wall = time.Since(start)
	var u usage
	u.fromState(cmd)
	run.cpu, run.rssMiB = u.cpu, u.rssMiB
	if exitErr != nil {
		return fail(cmdError("fstraced", exitErr, &stderr))
	}
	b.t.op(nil)
	return run, nil
}

// clientResult is what one stream client saw.
type clientResult struct {
	records int64
	digest  uint64
	lags    []float64 // ms: chunk arrival minus its last record's due time
	eps     float64   // records per second from connect to end of stream
	skipped int64
	end     time.Time
	err     error
}

// streamClient decodes the daemon's whole /stream. A chunk is complete
// when the reader emits its records (the v2 reader verifies a segment's
// checkpoint before handing out any of it), so each chunk's lag is taken
// when its last record is decoded.
func streamClient(ctx context.Context, hc *http.Client, base string, t0 time.Time) clientResult {
	var r clientResult
	connect := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	if err != nil {
		r.err = err
		return r
	}
	resp, err := hc.Do(req)
	if err != nil {
		r.err = fmt.Errorf("GET /stream: %v", err)
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("GET /stream: %s", resp.Status)
		return r
	}
	rd, err := trace.NewReader(resp.Body)
	if err != nil {
		r.err = fmt.Errorf("stream header: %v", err)
		return r
	}
	due := func(e trace.Event) time.Time {
		return t0.Add(time.Duration(float64(e.Time) * float64(time.Millisecond) / servePace))
	}
	var d eventDigest
	var last trace.Event
	var lastAt time.Time
	batch := make([]trace.Event, serveChunk)
	r.lags = make([]float64, 0, 2048)
	for {
		n, err := rd.NextBatch(batch)
		now := time.Now()
		for _, e := range batch[:n] {
			d.add(e)
			if d.n%serveChunk == 0 {
				r.lags = append(r.lags, ms(now.Sub(due(e))))
			}
		}
		if n > 0 {
			last, lastAt = batch[n-1], now
			continue
		}
		if err != io.EOF {
			r.err = fmt.Errorf("decode stream after %d records: %v", d.n, err)
			return r
		}
		break
	}
	r.end = time.Now()
	if d.n%serveChunk != 0 {
		r.lags = append(r.lags, ms(lastAt.Sub(due(last))))
	}
	r.records, r.digest = d.n, d.sum()
	r.skipped = rd.Skipped().Records
	r.eps = float64(d.n) / r.end.Sub(connect).Seconds()
	return r
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	Generation struct {
		RecordsSealed int64 `json:"records_sealed"`
		ChunksSealed  int64 `json:"chunks_sealed"`
		BytesSealed   int64 `json:"bytes_sealed"`
	} `json:"generation"`
	Analysis struct {
		Final bool `json:"final"`
	} `json:"analysis"`
	Metrics struct {
		Gauges map[string]float64 `json:"gauges"`
	} `json:"metrics"`
}

// finalStats polls /stats until the online analysis has finalized: the
// stream's end reaches the clients a moment before the analysis
// subscriber finishes.
func finalStats(ctx context.Context, hc *http.Client, base string) (*daemonStats, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := get(ctx, hc, base+"/stats")
		if err != nil {
			return nil, err
		}
		var st daemonStats
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, fmt.Errorf("GET /stats: %v", err)
		}
		if st.Analysis.Final {
			return &st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fstraced analysis not final 10s after the stream ended")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// get fetches url and fails on any status but 200.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// addrWatch is the daemon's standard output: it hands over the address
// from the "serving ... on http://host:port/" line and discards the rest.
// Only the command's copying goroutine writes to it.
type addrWatch struct {
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWatch) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for !w.sent {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, rest, ok := strings.Cut(line, " on http://"); ok && strings.HasPrefix(line, "fstraced: serving") {
			w.sent = true
			w.addr <- strings.TrimSuffix(rest, "/")
		}
	}
	return len(p), nil
}

// eventDigest is an order-sensitive FNV-1a digest of a record sequence.
type eventDigest struct {
	h   uint64
	n   int64
	buf [58]byte
}

func (d *eventDigest) add(e trace.Event) {
	if d.n == 0 {
		d.h = 14695981039346656037 // FNV-64 offset basis
	}
	le := binary.LittleEndian
	le.PutUint64(d.buf[0:], uint64(e.Time))
	d.buf[8] = byte(e.Kind)
	d.buf[9] = byte(e.Mode)
	le.PutUint64(d.buf[10:], uint64(e.OpenID))
	le.PutUint64(d.buf[18:], uint64(e.File))
	le.PutUint64(d.buf[26:], uint64(e.User))
	le.PutUint64(d.buf[34:], uint64(e.Size))
	le.PutUint64(d.buf[42:], uint64(e.OldPos))
	le.PutUint64(d.buf[50:], uint64(e.NewPos))
	for _, c := range d.buf {
		d.h ^= uint64(c)
		d.h *= 1099511628211 // FNV-64 prime
	}
	d.n++
}

func (d *eventDigest) sum() uint64 { return d.h }

// source digests every record of a trace file.
func (d *eventDigest) source(r io.Reader) error {
	rd, err := trace.NewReader(r)
	if err != nil {
		return err
	}
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	for {
		n, err := rd.NextBatch(batch)
		for _, e := range batch[:n] {
			d.add(e)
		}
		if n == 0 {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("decode after %d records: %v", d.n, err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
