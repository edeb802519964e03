package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"gostats/internal/stat"
)

// setups is how many times a run sets up from scratch; setup_s is the
// median. Only the last set-up is kept for measuring.
const setups = 5

// rig is a set-up run: the fixture, its server, and the client holding
// the keep-alive connection.
type rig struct {
	f      *fixture
	srv    *server
	client *client
	setup  []time.Duration
	// checked counts sessions that passed the output check outside the
	// measured loops.
	checked int
}

func (b *rig) close() {
	b.client.Close()
	b.srv.Close()
}

// setUp times everything before the first timed session: input
// generation, body encoding, the reference digest, server start and one
// untimed warm-up session. It does all of it setups times.
func setUp(wl workload, o options) (*rig, error) {
	b := &rig{}
	for i := 0; i < setups; i++ {
		if b.srv != nil {
			b.close()
		}
		t0 := time.Now()
		f, err := newFixture(wl, o.seed, o.inputs)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(pipelineConfig(o.seed))
		if err != nil {
			return nil, err
		}
		b.f, b.srv, b.client = f, srv, &client{addr: srv.addr}
		if err := b.warmUp(b.client); err != nil {
			b.close()
			return nil, err
		}
		b.setup = append(b.setup, time.Since(t0))
	}
	return b, nil
}

// warmUp runs one untimed, checked session.
func (b *rig) warmUp(c *client) error {
	s := c.do(b.f.req)
	if s.err == nil {
		s.err = checkSnapshots(s, b.f.wl.bench)
	}
	if s.err != nil {
		return fmt.Errorf("warm-up session: %w", s.err)
	}
	b.checked++
	return nil
}

// loop is the record of one closed-loop phase.
type loop struct {
	ok        []*session // sessions that passed the output check
	attempted int
	failed    int
	firstErr  error
}

// closedLoop posts sessions back to back for d: each is posted only after
// the previous trailer arrived.
func closedLoop(c *client, f *fixture, d time.Duration) *loop {
	l := &loop{}
	for deadline := time.Now().Add(d); l.attempted == 0 || time.Now().Before(deadline); {
		l.session(c, f, nil)
	}
	return l
}

// session runs and checks one session, traced when t is non-nil.
func (l *loop) session(c *client, f *fixture, t *tracer) {
	var sid, id int64
	if t != nil {
		sid, id = t.newSession(), t.newID()
		t.enter(sid, id)
	}
	s := c.do(f.req)
	if s.err == nil {
		s.err = checkSnapshots(s, f.wl.bench)
	}
	l.attempted++
	if s.err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = s.err
		}
		return
	}
	// Only the first traced session's snapshots are decoded again, by
	// measureCheckpoints; holding every session's would inflate the
	// process's peak RSS.
	if t == nil || len(l.ok) > 0 {
		s.ckpts = nil
	}
	if t != nil {
		s.span = id
		t.record(id, 0, sid, "session", s.start, s.end)
		t.record(t.newID(), id, sid, "ttfb", s.start, s.headers)
		t.record(t.newID(), id, sid, "body-read", s.headers, s.end)
	}
	l.ok = append(l.ok, s)
}

// inputsPerSecond is committed inputs per second of serving wall time:
// the sum of the sessions' POST-to-trailer times. Client-side checks
// between sessions are not counted.
func (l *loop) inputsPerSecond() float64 {
	var n int
	var busy time.Duration
	for _, s := range l.ok {
		n += len(s.latencies)
		busy += s.duration()
	}
	if busy <= 0 {
		return 0
	}
	return float64(n) / busy.Seconds()
}

func (l *loop) sessionMs() []float64 {
	out := make([]float64, len(l.ok))
	for i, s := range l.ok {
		out[i] = ms(s.duration())
	}
	return out
}

func (l *loop) failedFrac() float64 { return float64(l.failed) / float64(l.attempted) }

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(wl workload, o options, w io.Writer) (*result, error) {
	b, err := setUp(wl, o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	l := closedLoop(b.client, b.f, seconds(o.seconds))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	res := newResult(b, l)
	var lat []float64
	for _, s := range l.ok {
		lat = append(lat, s.latencies...)
	}
	sms := l.sessionMs()
	fmt.Fprintf(w, "sessions attempted=%d failed=%d failed_frac=%g inputs_per_session=%d latency_samples=%d session_ms_q1=%.3f q3=%.3f\n",
		l.attempted, l.failed, l.failedFrac(), b.f.req.outputs, len(lat), stat.Percentile(sms, 25), stat.Percentile(sms, 75))
	if l.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", l.firstErr)
	}
	report(w, res, "inputs_per_s", l.inputsPerSecond(), "1/s")
	report(w, res, "session_ms_p50", stat.Median(sms), "ms")
	report(w, res, "commit_latency_ms_p50", stat.Percentile(lat, 50), "ms")
	report(w, res, "commit_latency_ms_p99", stat.Percentile(lat, 99), "ms")
	report(w, res, "max_rss_mb", rss, "MB")
	report(w, res, "setup_s", stat.Median(secondsOf(b.setup)), "s")
	return res, nil
}

// newResult starts a result from a measured loop.
func newResult(b *rig, l *loop) *result {
	return &result{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   map[string]metric{},
		checked:   b.checked + len(l.ok),
	}
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak resident set size (VmHWM) from the current size, so the peak read
// later covers the measured sessions, not the set-ups' garbage.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size since the last
// reset: server, client and the fixture together.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
