package engine

import (
	"fmt"
	"time"

	"gostats/internal/rng"
	"gostats/internal/trace"
)

// worker is one member of the speculative worker pool: it pulls assembled
// chunks and executes them on NativeExec, out of commit order. slotID
// identifies the pool slot for event attribution (Recorder maps it to a
// trace thread).
func (p *Pipeline) worker(slotID int) {
	defer p.stages.Done()
	for {
		jb, err := p.jobs.Pop(p.ctx.Done())
		if err != nil {
			return
		}
		res := p.speculate(jb, slotID)
		if err := p.results.Push(p.ctx.Done(), res); err != nil {
			return
		}
	}
}

// speculate runs the worker-side protocol for one chunk with fault
// isolation: a panic or missed deadline inside the attempt becomes a
// chunk fault, retried with backoff up to the policy's budget. A
// successful attempt re-derives exactly the RNG substreams the first one
// did, so its result is byte-identical no matter how many faulted
// attempts preceded it. A faulted attempt's states are scrapped before
// the next one starts. When the budget exhausts, the returned result
// carries only the fault; the commit frontier degrades the chunk to
// sequential re-execution from the last committed state.
func (p *Pipeline) speculate(jb *job, slotID int) *result {
	res := &result{job: jb}
	myRng := p.workerRng(jb.index)
	site := SiteAltProducer
	fault := p.att.retry(jb.index, slotID, &site, myRng, func(n int) {
		if n > 0 {
			p.scrap(res)
		}
		p.speculateOnce(res, slotID, n, myRng, &site)
	})
	if fault != nil {
		p.scrap(res)
		res.fault = fault
	}
	return res
}

// scrap retires the states a faulted attempt materialized before it
// failed. States lost mid-phase (a snapshot, a half-built replica) are
// left to the garbage collector — correctness never depends on the pool.
func (p *Pipeline) scrap(res *result) {
	p.pool.Release(res.spec)
	if res.origs != nil {
		for _, o := range res.origs {
			p.pool.Release(o)
		}
	} else {
		p.pool.Release(res.final)
	}
	res.spec, res.outs, res.final, res.origs = nil, nil, nil, nil
	res.specFP, res.origFPs, res.fpOK = 0, nil, false
}

// speculateOnce is one execution attempt of the worker-side protocol,
// mirroring the batch worker exactly — same primitives, same RNG
// derivations keyed by the chunk index — so the committed output sequence
// depends only on (seed, inputs, chunk boundaries), not on which pool
// worker ran it or when:
//
//  1. the alternative producer replays the predecessor's lookback window
//     from a cold state (chunk 0 instead starts from the initial state),
//  2. the chunk body runs speculatively from that state, snapshotting
//     window-length inputs before the end, and
//  3. original states for the successor's validation are generated from
//     the snapshot.
//
// Unlike the batch worker, a streaming chunk never knows it is last, so
// original states are always generated; for a session's final chunk they
// go unused.
//
// site tracks which protocol phase is executing so a fault is attributed
// to the right place; the injector (if any) is consulted at each phase.
func (p *Pipeline) speculateOnce(res *result, slotID, attempt int, myRng *rng.Stream, site *FaultSite) {
	t0 := time.Now()
	prog := guardProgram(p.prog, p.att.pol.ChunkDeadline)
	jb := res.job
	j := jb.index
	jit := myRng.Derive("jitter")
	g := NewGang(p.ex, fmt.Sprintf("%s-w%d", prog.Name(), j), p.cfg.InnerWidth, p.countThread)
	defer g.Close(p.ex)

	var s State
	if j == 0 {
		injectAt(p.inj, SiteAltProducer, j, attempt, nil)
		s = jb.initial
		if attempt > 0 {
			// The faulted attempt consumed (and may have corrupted) the
			// dispatched initial state; rebuild it from the same derivation.
			s = p.prog.Initial(p.root.Derive("init"))
			p.countState()
		}
	} else {
		tAlt := time.Now()
		s = SpeculativeState(p.ex, prog, p.pool, jb.prevWindow, myRng, p.countState)
		// The injector sees the produced state before it is published: a
		// corrupted speculative state poisons the published copy and the
		// body run together, so boundary validation catches it.
		s = injectAt(p.inj, SiteAltProducer, j, attempt, s)
		p.emit(Event{Kind: EvAltProduced, Chunk: j, Worker: slotID,
			N: len(jb.prevWindow), Start: tAlt, Dur: time.Since(tAlt)})
		tPub := time.Now()
		res.spec = p.pool.Clone(s)
		p.countState()
		p.emit(Event{Kind: EvSpecPublished, Chunk: j, Worker: slotID,
			Start: tPub, Dur: time.Since(tPub)})
	}

	*site = SiteBody
	s = injectAt(p.inj, SiteBody, j, attempt, s)
	win := p.chunkWindow(jb.inputs)
	snapAt := len(jb.inputs) - len(win)
	var snapshot State
	tBody := time.Now()
	res.outs, snapshot, res.final = ProcessChunk(p.ex, prog, p.pool, g, jb.inputs,
		snapAt, s, myRng.Derive("body"), jit, trace.CatChunkWork, p.countState,
		p.slabs.takeOut(len(jb.inputs)))
	p.emit(Event{Kind: EvBody, Chunk: j, Worker: slotID,
		N: len(jb.inputs), Start: tBody, Dur: time.Since(tBody)})
	if snapshot != nil {
		p.emit(Event{Kind: EvSnapshot, Chunk: j, Worker: slotID})
	}
	*site = SiteOrigStates
	injectAt(p.inj, SiteOrigStates, j, attempt, nil)
	tOrig := time.Now()
	res.origs = OriginalStates(p.ex, prog, p.pool, fmt.Sprintf("%s-r%d", prog.Name(), j),
		win, snapshot, res.final, p.cfg.ExtraStates, myRng, p.countThread, p.countState)
	p.emit(Event{Kind: EvOrigStates, Chunk: j, Worker: slotID,
		N: len(res.origs) - 1, M: len(win), Start: tOrig, Dur: time.Since(tOrig)})
	// The replicas have replayed the window from the snapshot; retire it.
	p.pool.Release(snapshot)

	// Cache the validation wave's fingerprint lanes while the states are
	// hot in cache: the commit stage's boundary comparisons reuse them
	// instead of recomputing digests on the commit thread.
	if p.fper != nil && res.spec != nil {
		res.specFP, res.fpOK = p.fper.Fingerprint(res.spec), true
	}
	res.origFPs = p.fingerprints(res.origs)

	p.emit(Event{Kind: EvSpeculated, Chunk: j, Worker: slotID,
		N: len(jb.inputs), Start: t0, Dur: time.Since(t0)})
}
