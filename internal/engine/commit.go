package engine

import (
	"fmt"
	"time"

	"gostats/internal/ring"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

// committed is the commit frontier's view of the last committed chunk:
// the lineage state the next chunk is validated against and, on
// mispeculation, recovered from. origFPs caches the original states'
// fingerprint lanes for the next boundary's comparison wave.
type committed struct {
	final   State
	origs   []State
	origFPs []uint64
}

// commit is the ordered commit stage: it reorders worker results into
// input order and applies the §II-B commit protocol chunk by chunk. It is
// the only stage that touches the true (committed) lineage, so it needs
// no locks — order is enforced structurally.
func (p *Pipeline) commit() {
	defer p.stages.Done()
	defer p.emit(Event{Kind: EvSessionEnd, Chunk: -1, Worker: -1})
	defer close(p.out)
	//statslint:allow hotalloc session-scoped panic guard: the closure is built once per stage, not per input
	defer func() {
		if r := recover(); r != nil {
			p.fail(&FaultError{Fault: &ChunkFault{ //statslint:allow hotalloc panic path: boxes the fault at most once per session
				Chunk: -1, Site: SiteCommit, Panic: r, Stack: stack()}})
		}
	}()

	pending := map[int]*result{} //statslint:allow hotalloc session-scoped reorder buffer, allocated once per stage
	next := 0
	var prev committed
	var prevInputs []Input // committed predecessor's chunk inputs
	if rs := p.resume; rs != nil {
		// Resume at the snapshot frontier: the decoded lineage stands in
		// for the last committed chunk's result, so the first boundary is
		// validated against the exact states the uninterrupted session
		// would have held.
		next = rs.next
		if len(rs.lineage) > 0 {
			prev.final = rs.lineage[0]
			prev.origs = rs.lineage
			prev.origFPs = p.fingerprints(rs.lineage)
		}
	}
	for {
		res, err := p.results.Pop(p.ctx.Done())
		if err != nil {
			// ring.ErrClosed: workers are done and the ring is drained;
			// everything dispatched has been committed in order. On a
			// halted session that clean drain IS the migration point:
			// capture the frontier one last time.
			// ring.ErrCanceled: the run was abandoned or failed.
			if err == ring.ErrClosed && p.ckpt != nil && p.halted.Load() {
				p.ckpt.finalize(next, prevInputs, &prev)
			}
			return
		}
		pending[res.job.index] = res
		for {
			r, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			if !p.applyCommit(r, &prev) {
				return
			}
			// Chunk next-1's input slab is now dead: its last readers
			// were chunk next's alternative producer (prevWindow
			// aliases it) and chunk next's possible re-exec, both
			// finished inside apply.
			p.slabs.putIn(prevInputs)
			prevInputs = r.job.inputs
			next++
		}
	}
}

// applyCommit validates, commits or recovers one chunk at the frontier
// and emits its outputs. It is the pipeline's only validation site, as
// in the batch scheduler: boundary j is checked once, in input order,
// after chunk j-1 has committed, by a comparison wave over the
// fingerprint lanes the workers cached. A result whose worker exhausted
// its retry budget is degraded here: the chunk abandons its (dead)
// speculation and re-executes sequentially from the last committed
// state, exactly like a mispeculation abort. applyCommit returns false
// if the context was canceled or the session failed terminally.
func (p *Pipeline) applyCommit(r *result, prev *committed) bool {
	j := r.job.index
	ok := r.fault == nil
	if j > 0 {
		if ok {
			t0 := time.Now()
			var n int
			ok, n = matchAnyWave(p.ex, p.prog, prev.origs, prev.origFPs, r.spec, r.specFP, r.fpOK)
			p.emit(Event{Kind: EvValidated, Chunk: j, Worker: -1,
				N: n, Matched: ok, Start: t0, Dur: time.Since(t0)})
		}
		// The boundary is resolved either way: the predecessor's replica
		// originals and this chunk's published speculative copy are dead.
		// prev.origs[0] stays live — it is prev.final, the recovery state.
		// (A faulted result was scrapped worker-side; its spec is nil.)
		p.pool.ReleaseReplicas(prev.origs)
		p.pool.Release(r.spec)
	}
	outs, final, origs, origFPs := r.outs, r.final, r.origs, r.origFPs
	if !ok {
		p.aborts.Add(1)
		if r.fault != nil {
			p.degraded.Add(1)
			p.emit(Event{Kind: EvDegraded, Chunk: j, Worker: -1, N: r.fault.Attempt})
		}
		p.emit(Event{Kind: EvAborted, Chunk: j, Worker: -1})
		// The speculative run's states — its final (origs[0]) and its
		// replicas — are dead. (Faulted results carry none.)
		for _, o := range r.origs {
			p.pool.Release(o)
		}
		var fault *ChunkFault
		outs, final, origs, fault = p.reexecProtected(r, prev.final)
		if fault != nil {
			p.fail(&FaultError{Fault: fault}) //statslint:allow hotalloc fault path: boxes the terminal fault at most once per session
			return false
		}
		// Refresh the fingerprint cache for the recovered lineage the
		// next boundary's wave compares against.
		origFPs = p.fingerprints(origs)
	} else {
		p.commits.Add(1)
		p.emit(Event{Kind: EvCommitted, Chunk: j, Worker: -1})
	}
	oldFinal := prev.final
	prev.final, prev.origs, prev.origFPs = final, origs, origFPs
	// The old frontier state has served as recovery base for the last
	// time; retire it. (nil at chunk 0 — Release is nil-tolerant.)
	p.pool.Release(oldFinal)

	t1 := time.Now()
	for _, out := range outs {
		select {
		case <-p.ctx.Done():
			return false
		case p.out <- out:
			p.outputs.Add(1)
		}
	}
	p.emit(Event{Kind: EvOutputs, Chunk: j, Worker: -1,
		N: len(outs), Start: t1, Dur: time.Since(t1)})
	// Checkpoint bookkeeping sits after the outputs are downstream (a
	// snapshot must never cover outputs the consumer has not been offered)
	// and before the slab recycles (byte-interval counting reads outs).
	if p.ckpt != nil {
		p.ckpt.onCommit(j, r.job.inputs, outs, prev, ok)
	}
	// The outputs have been copied downstream; recycle the slab.
	p.slabs.putOut(outs)

	// Feed the outcome window: this both opens one speculation slot for
	// the assembler and, in commit order, drives adaptive chunk sizing.
	// The ring's capacity exceeds the window's maximum backlog, so this
	// push parks only if the run is being torn down.
	if err := p.outcomes.Push(p.ctx.Done(), ok); err != nil {
		return false
	}
	return true
}

// reexecProtected wraps recovery re-execution in the same fault
// isolation and retry/backoff discipline as speculative attempts. It is
// the last rung of the degradation ladder: if every re-execution attempt
// faults too, the session fails with a structured FaultError (the caller
// stops the pipeline; the process survives).
func (p *Pipeline) reexecProtected(r *result, trueFinal State) (outs []Output, final State, origs []State, fault *ChunkFault) {
	myRng := p.workerRng(r.job.index)
	site := SiteReexec
	//statslint:allow hotalloc recovery path: reexec runs only on mispeculation or fault, off the steady state
	fault = p.att.retry(r.job.index, -1, &site, myRng, func(n int) {
		outs, final, origs = p.reexecOnce(r, trueFinal, myRng, n)
	})
	return outs, final, origs, fault
}

// reexecOnce recovers a mispeculated or faulted chunk (§III-E): it
// re-runs the chunk in place from the true state the committed
// predecessor produced (for chunk 0, a rebuilt initial state), then
// regenerates the original states the successor will be validated
// against. Recovery runs at the commit frontier, serializing the pipeline
// for the chunk's length — that serialization is exactly the
// mispeculation cost the paper's loss decomposition charges.
func (p *Pipeline) reexecOnce(r *result, trueFinal State, myRng *rng.Stream, attempt int) ([]Output, State, []State) {
	t0 := time.Now()
	prog := guardProgram(p.prog, p.att.pol.ChunkDeadline)
	j := r.job.index
	jit := myRng.Derive("jitter")
	g := NewGang(p.ex, fmt.Sprintf("%s-x%d", prog.Name(), j), p.cfg.InnerWidth, p.countThread) //statslint:allow hotalloc recovery path: gang naming runs only on reexec, off the steady state
	defer g.Close(p.ex)

	injectAt(p.inj, SiteReexec, j, attempt, nil)
	var s2 State
	if trueFinal != nil {
		s2 = p.pool.Clone(trueFinal)
	} else {
		// Chunk 0 has no committed predecessor: its true start state is the
		// program's initial state, rebuilt from the same derivation the
		// dispatcher used.
		s2 = p.prog.Initial(p.root.Derive("init"))
	}
	p.countState()
	win := p.chunkWindow(r.job.inputs)
	snapAt := len(r.job.inputs) - len(win)
	// The speculative outputs are dead on abort; reuse their slab.
	outs, snapshot, final := ProcessChunk(p.ex, prog, p.pool, g, r.job.inputs,
		snapAt, s2, myRng.Derive("reexec"), jit, trace.CatReexec, p.countState, r.outs)
	p.emit(Event{Kind: EvReexec, Chunk: j, Worker: -1,
		N: len(r.job.inputs), Start: t0, Dur: time.Since(t0)})
	if snapshot != nil {
		p.emit(Event{Kind: EvSnapshot, Chunk: j, Worker: -1})
	}
	tOrig := time.Now()
	origs := OriginalStates(p.ex, prog, p.pool, fmt.Sprintf("%s-r%d", prog.Name(), j), //statslint:allow hotalloc recovery path: state naming runs only on reexec, off the steady state
		win, snapshot, final, p.cfg.ExtraStates, myRng.Derive("reorig"), p.countThread, p.countState)
	p.emit(Event{Kind: EvOrigStates, Chunk: j, Worker: -1,
		N: len(origs) - 1, M: len(win), Start: tOrig, Dur: time.Since(tOrig)})
	p.pool.Release(snapshot)

	return outs, final, origs
}
