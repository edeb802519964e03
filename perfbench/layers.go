package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gostats/internal/bench"
	"gostats/internal/checkpoint"
	"gostats/internal/engine"
	"gostats/internal/stat"
	"gostats/internal/stream"
)

// minRounds is the fewest measuring rounds a traced run makes, however
// short its time.
const minRounds = 3

// runTraced measures the per-layer budget in rounds. Each round runs one
// session against the untraced server (the base of the tracing overhead
// and the Go runtime counters), one against a second server whose base
// pipeline config carries the span collector, and one isolated replay of
// each layer on the same session: decode, the engine driven directly with
// decoded inputs, encode, and the sequential program. Interleaving puts
// every measurement under the same machine conditions.
func runTraced(wl workload, o options, w io.Writer) (*result, error) {
	b, err := setUp(wl, o)
	if err != nil {
		return nil, err
	}
	defer b.close()

	t := newTracer()
	base := pipelineConfig(o.seed)
	base.Sink = t
	tsrv, err := startServer(base)
	if err != nil {
		return nil, err
	}
	defer tsrv.Close()
	tc := &client{addr: tsrv.addr}
	defer tc.Close()
	if err := b.warmUp(tc); err != nil {
		return nil, err
	}
	plain, traced := &loop{}, &loop{}
	lr := &layerReplays{ids: map[int64]bool{}}
	var m0, m1 runtime.MemStats
	var allocBytes, gcCycles uint64
	var copies int64 // state copies of the traced sessions
	deadline := time.Now().Add(seconds(o.seconds))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		runtime.ReadMemStats(&m0)
		plain.session(b.client, b.f, nil)
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcCycles += uint64(m1.NumGC - m0.NumGC)

		c0 := t.counters.Snapshot()
		traced.session(tc, b.f, t)
		copies += t.counters.Snapshot().Overheads().StateCopies - c0.Overheads().StateCopies

		if err := lr.replay(b.f, o.seed, t); err != nil {
			return nil, err
		}
	}

	res := newResult(b, plain)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	res.checked += len(traced.ok) + len(lr.engine)
	fmt.Fprintf(w, "sessions untraced=%d/%d traced=%d/%d ok/attempted\n",
		len(plain.ok), plain.attempted, len(traced.ok), traced.attempted)
	for _, l := range []*loop{plain, traced} {
		if l.firstErr != nil {
			fmt.Fprintf(w, "first failure: %v\n", l.firstErr)
		}
	}
	if len(plain.ok) == 0 || len(traced.ok) == 0 {
		return res, nil
	}

	ck, err := measureCheckpoints(b.f, traced.ok[0], tc, t)
	if err != nil {
		return nil, err
	}
	res.checked += ck.resumed
	spans := t.snapshot()

	// Engine speculate and validate/commit timings come from the direct
	// replays' engine events, per replayed session.
	kids := childTotals(spans)
	perReplay := func(name string) float64 {
		var d time.Duration
		for id := range lr.ids {
			d += kids[id][name]
		}
		return ms(d) / float64(len(lr.ids))
	}
	// In a served session the producer decodes while the engine runs, so
	// the direct replay's time overlaps decode. The budget charges the
	// engine only where the session waited for it: the producer blocked
	// on backpressure (ingest wait) plus the tail after its last push.
	// The budget is that of the median traced session, so its layers add
	// up to session_ms_p50 exactly.
	var waits []float64
	for _, s := range traced.ok {
		waits = append(waits, ms(kids[s.span]["engine.ingest-wait"]))
	}
	mid := medianSession(traced.ok)
	n := float64(b.f.req.outputs)
	sessionMs := ms(mid.duration())
	decodeMs, encodeMs := stat.Median(lr.decode), stat.Median(lr.encode)
	exposedMs := ms(kids[mid.span]["engine.ingest-wait"] + kids[mid.span]["engine.tail"])
	engineMs, seqMs := stat.Median(lr.engine), stat.Median(lr.seq)
	residualMs := sessionMs - decodeMs - exposedMs - encodeMs

	// Codec layer: the isolated decode and encode replays.
	report(w, res, "codec.decode_us_per_input", 1000*decodeMs/n, "us")
	report(w, res, "codec.encode_us_per_output", 1000*encodeMs/n, "us")
	report(w, res, "codec.decode_share", decodeMs/sessionMs, "ratio")

	// Serving layer: the traced sessions as the client saw them.
	var ttfb, in, out []float64
	for _, s := range traced.ok {
		ttfb = append(ttfb, ms(s.headers.Sub(s.start)))
		in = append(in, float64(s.bytesIn))
		out = append(out, float64(s.bytesOut))
	}
	report(w, res, "serve.ttfb_ms_p50", stat.Median(ttfb), "ms")
	report(w, res, "serve.residual_ms_per_session", residualMs, "ms")
	report(w, res, "trace.session_ms_p50", sessionMs, "ms")
	report(w, res, "serve.bytes_in_per_session", stat.Mean(in), "bytes")
	report(w, res, "serve.bytes_out_per_session", stat.Mean(out), "bytes")

	workers := float64(base.Workers)
	report(w, res, "engine.session_ms", engineMs, "ms")
	report(w, res, "engine.exposed_ms", exposedMs, "ms")
	report(w, res, "engine.seq_ms", seqMs, "ms")
	report(w, res, "engine.speedup_vs_seq", seqMs/engineMs, "x")
	report(w, res, "engine.speculate_busy_ms", perReplay("engine.speculated"), "ms")
	report(w, res, "engine.worker_util", perReplay("engine.speculated")/(workers*engineMs), "ratio")
	report(w, res, "engine.ingest_wait_ms", stat.Median(waits), "ms")
	report(w, res, "engine.validate_ms", perReplay("engine.validated"), "ms")
	report(w, res, "engine.commit_ms", perReplay("engine.outputs"), "ms")
	report(w, res, "engine.reexec_ms", perReplay("engine.reexec"), "ms")

	// Engine counts and state: the served sessions' trailers and engine
	// counters, per session or per input.
	var st stream.Stats
	for _, s := range traced.ok {
		ts := s.trailer.Stats
		st.Inputs += ts.Inputs
		st.Chunks += ts.Chunks
		st.Commits += ts.Commits
		st.Aborts += ts.Aborts
		st.Faults += ts.Faults
		st.Retries += ts.Retries
		st.States += ts.States
		st.Reused += ts.Reused
	}
	sessions := float64(len(traced.ok))
	report(w, res, "engine.chunks", float64(st.Chunks)/sessions, "count")
	report(w, res, "engine.commits", float64(st.Commits)/sessions, "count")
	report(w, res, "engine.aborts", float64(st.Aborts)/sessions, "count")
	report(w, res, "engine.commit_ratio", ratio(st.Commits, st.Commits+st.Aborts), "ratio")
	report(w, res, "engine.faults", float64(st.Faults)/sessions, "count")
	report(w, res, "engine.retries", float64(st.Retries)/sessions, "count")
	report(w, res, "engine.states_per_input", ratio(st.States, st.Inputs), "count/input")
	report(w, res, "engine.state_copies_per_input", ratio(copies, st.Inputs), "count/input")
	report(w, res, "engine.state_reuse_ratio", ratio(st.Reused, st.States), "ratio")

	// Checkpoint layer; zero on workloads that do not checkpoint.
	report(w, res, "ckpt.snapshots_per_session", ck.perSession, "count")
	report(w, res, "ckpt.snapshot_bytes", ck.bytes, "bytes")
	report(w, res, "ckpt.decode_ms", ck.decodeMs, "ms")
	report(w, res, "ckpt.resume_first_output_ms", ck.resumeMs, "ms")

	// Go runtime, over the untraced sessions.
	var committed int
	for _, s := range plain.ok {
		committed += len(s.latencies)
	}
	report(w, res, "go.alloc_bytes_per_input", float64(allocBytes)/float64(committed), "bytes")
	report(w, res, "go.gc_cycles_per_session", float64(gcCycles)/float64(len(plain.ok)), "count")

	report(w, res, "trace.overhead_frac", 1-traced.inputsPerSecond()/plain.inputsPerSecond(), "ratio")
	report(w, res, "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")

	stats := selfTimes(spans)
	printSelfTimes(w, stats)
	path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))
	if err := writeSpans(path, spans, stats); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans %d written to %s\n", len(spans), path)

	tol := budgetTolerance(sessionMs, lr.decode, lr.encode)
	fmt.Fprintf(w, "budget session_ms_p50=%.3f = decode %.3f + engine exposed %.3f + encode %.3f + residual %.3f (resolution %.3f)\n",
		sessionMs, decodeMs, exposedMs, encodeMs, residualMs, tol)
	// Decode, exposed engine and encode are measured durations and never
	// negative, so only the residual can read out of range: below -tol
	// the layers double-count time.
	if residualMs < -tol || residualMs > sessionMs {
		return nil, fmt.Errorf("layer budget does not close: residual %.3fms outside [-%.3f, %.3f]ms", residualMs, tol, sessionMs)
	}
	return res, nil
}

// budgetResolution is the share of the session time within which the
// budget is resolved at least. The codec terms come from isolated
// replays while the session's own decode and encode run under
// contention, and encode partly overlaps the engine, so on an
// engine-bound session the residual scatters around a small positive
// value.
const budgetResolution = 0.05

// budgetTolerance is how far below zero the residual may read before the
// budget counts as wrong: the larger of the stated resolution and the
// scatter (interquartile range) of the replayed codec terms, which is how
// far one session's own decode and encode typically stray from their
// replayed medians.
func budgetTolerance(sessionMs float64, replayed ...[]float64) float64 {
	var scatter float64
	for _, xs := range replayed {
		scatter += stat.Percentile(xs, 75) - stat.Percentile(xs, 25)
	}
	return max(budgetResolution*sessionMs, scatter)
}

// medianSession is the session of median duration (the lower middle one
// of an even count).
func medianSession(ss []*session) *session {
	sorted := append([]*session(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].duration() < sorted[j].duration() })
	return sorted[(len(sorted)-1)/2]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerReplays holds each isolated layer's per-session times in ms, and
// the root span IDs of the engine replays.
type layerReplays struct {
	decode, engine, encode, seq []float64
	ids                         map[int64]bool
}

// replay replays each layer once on the fixture's session: scan and
// decode every body line, run the pipeline directly on the already-decoded inputs
// (with the workload's checkpointing, and the tracer as its sink), encode
// every output, and run the sequential program. The encoded replay output
// must match the reference digest.
func (lr *layerReplays) replay(f *fixture, seed uint64, t *tracer) error {
	prog, err := bench.New(f.wl.bench)
	if err != nil {
		return err
	}
	// The replay scans and decodes lines exactly as the server's
	// producer does, from the scanner's buffer, and drops each input
	// as a served session drops it once the engine has consumed it.
	sid := t.newSession()
	t0 := time.Now()
	sc := bench.NewLineScanner(bytes.NewReader(f.req.body), 0)
	for sc.Scan() {
		if _, err := f.codec.DecodeInput(sc.Bytes()); err != nil {
			return fmt.Errorf("decode replay: line %d: %w", sc.Line(), err)
		}
	}
	t1 := time.Now()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("decode replay: %w", err)
	}
	lr.decode = append(lr.decode, ms(t1.Sub(t0)))
	t.root(sid, "replay.decode", t0, t1)

	cfg := pipelineConfig(seed)
	cfg.Sink = t
	if f.wire != nil {
		cfg.Checkpoint = engine.CheckpointConfig{Codec: f.wire, EveryCommits: f.wl.ckpt}
	}
	id := t.newID()
	t.enter(sid, id)
	outs := make([]engine.Output, 0, len(f.inputs))
	t0 = time.Now()
	_, err = runPipeline(prog, cfg, f.inputs, func(o engine.Output) error {
		outs = append(outs, o)
		return nil
	})
	t1 = time.Now()
	if err != nil {
		return fmt.Errorf("engine replay: %w", err)
	}
	lr.engine = append(lr.engine, ms(t1.Sub(t0)))
	t.record(id, 0, sid, "replay.engine", t0, t1)
	lr.ids[id] = true

	h := sha256.New()
	t0 = time.Now()
	for _, o := range outs {
		line, err := f.codec.EncodeOutput(o)
		if err != nil {
			return fmt.Errorf("encode replay: %w", err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	t1 = time.Now()
	lr.encode = append(lr.encode, ms(t1.Sub(t0)))
	t.root(sid, "replay.encode", t0, t1)
	if !bytes.Equal(h.Sum(nil), f.req.digest[:]) {
		return fmt.Errorf("engine replay output differs from the reference")
	}

	t0 = time.Now()
	engine.RunSequential(engine.NewNativeExec(), prog, f.inputs, seed)
	t1 = time.Now()
	lr.seq = append(lr.seq, ms(t1.Sub(t0)))
	t.root(sid, "replay.seq", t0, t1)
	return nil
}

// ckptLayer holds the checkpoint layer's per-layer numbers.
type ckptLayer struct {
	perSession float64 // #ckpt lines per traced session
	bytes      float64 // median snapshot envelope size
	decodeMs   float64 // median envelope + lineage-state decode time
	resumeMs   float64 // median POST-to-first-output time of resumed sessions
	resumed    int     // resumed sessions that passed the output check
}

// measureCheckpoints decodes every snapshot of one traced session, state
// lineage included, and resumes sessions from its middle snapshot through
// the traced server; each resumed session's output must match the
// reference's remaining outputs.
func measureCheckpoints(f *fixture, s *session, c *client, t *tracer) (ckptLayer, error) {
	var ck ckptLayer
	if f.wire == nil || len(s.ckpts) == 0 {
		return ck, nil
	}
	ck.perSession = float64(len(s.ckpts))
	var sizes, decodes []float64
	for _, b64 := range s.ckpts {
		sizes = append(sizes, float64(base64.StdEncoding.DecodedLen(len(b64))-strings.Count(b64[max(0, len(b64)-2):], "=")))
		sid := t.newSession()
		t0 := time.Now()
		snap, err := checkpoint.DecodeString(b64)
		if err != nil {
			return ck, err
		}
		for i, st := range snap.Lineage {
			if _, err := f.wire.DecodeState(st); err != nil {
				return ck, fmt.Errorf("snapshot lineage state %d: %w", i, err)
			}
		}
		t1 := time.Now()
		decodes = append(decodes, ms(t1.Sub(t0)))
		t.root(sid, "ckpt.decode", t0, t1)
	}
	ck.bytes, ck.decodeMs = stat.Median(sizes), stat.Median(decodes)

	mid := s.ckpts[len(s.ckpts)/2]
	snap, err := checkpoint.DecodeString(mid)
	if err != nil {
		return ck, err
	}
	req := f.resumeRequest(mid, int(snap.Inputs))
	var firsts []float64
	for i := 0; i < minRounds; i++ {
		sid, id := t.newSession(), t.newID()
		t.enter(sid, id)
		rs := c.do(req)
		if rs.err == nil {
			rs.err = checkSnapshots(rs, f.wl.bench)
		}
		if rs.err != nil {
			return ck, fmt.Errorf("resumed session: %w", rs.err)
		}
		t.record(id, 0, sid, "resume", rs.start, rs.end)
		t.record(t.newID(), id, sid, "ttfb", rs.start, rs.headers)
		firsts = append(firsts, ms(rs.first.Sub(rs.start)))
		ck.resumed++
	}
	ck.resumeMs = stat.Median(firsts)
	return ck, nil
}
