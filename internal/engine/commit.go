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
// fingerprint lanes for the next boundary's comparison wave; spec
// records whether the lineage is the chunk's speculative result (only
// then may a prevalidated verdict — computed against exactly those
// original states — be consumed).
type committed struct {
	final   State
	origs   []State
	origFPs []uint64
	spec    bool
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
		// for the last committed chunk's result. spec stays false — no
		// recorded verdict can refer to restored states — so the first
		// boundary is validated by the inline wave, against the exact
		// states the uninterrupted session would have held.
		next = rs.next
		if len(rs.lineage) > 0 {
			prev.final = rs.lineage[0]
			prev.origs = rs.lineage
			if p.fper != nil {
				prev.origFPs = make([]uint64, len(rs.lineage))
				for i, s := range rs.lineage {
					prev.origFPs[i] = p.fper.Fingerprint(s)
				}
			}
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
// and emits its outputs. Validation prefers a verdict prevalidated on a
// worker (frontier.go); when none is usable it runs the comparison wave
// inline, with the fingerprint lanes the worker cached. A result whose
// worker exhausted its retry budget is degraded here: the chunk abandons
// its (dead) speculation and re-executes sequentially from the last
// committed state, exactly like a mispeculation abort. applyCommit
// returns false if the context was canceled or the session failed
// terminally.
func (p *Pipeline) applyCommit(r *result, prev *committed) bool {
	j := r.job.index
	ok := r.fault == nil
	if j > 0 {
		// Settle the boundary's validation slot first: after this no
		// prevalidator can be reading prev's replicas or r's spec.
		v, have := p.fr.settle(j)
		if r.fault == nil {
			if !have || !prev.spec {
				// No usable verdict: validate inline. (A recorded one was
				// computed against exactly the states this wave would
				// use only when prev is its speculative lineage.)
				//statslint:allow detpath wall time feeds the EvValidated Start/Dur instrumentation only; the verdict and inspected count are pure functions of the states
				t0 := time.Now()
				v.ok, v.n = matchAnyWave(p.ex, p.prog, prev.origs, prev.origFPs, r.spec, r.specFP, r.fpOK)
				v.worker, v.start, v.dur = -1, t0, time.Since(t0) //statslint:allow detpath the duration lands in the EvValidated event below; no protocol decision reads it
			}
			ok = v.ok
			p.emit(Event{Kind: EvValidated, Chunk: j, Worker: v.worker,
				N: v.n, Matched: v.ok, Start: v.start, Dur: v.dur})
		}
		// The boundary is resolved either way: the predecessor's replica
		// originals and this chunk's published speculative copy are dead.
		// prev.origs[0] stays live — it is prev.final, the recovery state.
		// (A faulted result was scrapped worker-side; its spec is nil.)
		p.pool.ReleaseReplicas(prev.origs)
		p.pool.Release(r.spec)
	}
	outs, final, origs := r.outs, r.final, r.origs
	origFPs, specLineage := r.origFPs, true
	if !ok {
		p.aborts.Add(1)
		if r.fault != nil {
			p.degraded.Add(1)
			p.emit(Event{Kind: EvDegraded, Chunk: j, Worker: -1, N: r.fault.Attempt})
		}
		p.emit(Event{Kind: EvAborted, Chunk: j, Worker: -1})
		// The speculative run's states — its final (origs[0]) and its
		// replicas — are dead. Spend the successor's validation slot
		// before retiring them: a prevalidator may be mid-comparison
		// against these very states, and once the slot is spent no new
		// claim can reach them. (Faulted results carry none.)
		p.fr.quiesce(j + 1)
		for _, o := range r.origs {
			p.pool.Release(o)
		}
		var fault *ChunkFault
		outs, final, origs, fault = p.reexecProtected(r, prev.final)
		if fault != nil {
			p.fail(&FaultError{Fault: fault}) //statslint:allow hotalloc fault path: boxes the terminal fault at most once per session
			return false
		}
		// The recovered lineage is not the one any recorded verdict was
		// computed against; refresh the fingerprint cache for the next
		// boundary's inline wave.
		specLineage = false
		origFPs = nil
		if p.fper != nil {
			origFPs = make([]uint64, len(origs))
			for i, o := range origs {
				origFPs[i] = p.fper.Fingerprint(o)
			}
		}
	} else {
		p.commits.Add(1)
		p.emit(Event{Kind: EvCommitted, Chunk: j, Worker: -1})
	}
	if j > 0 {
		// Slot j-1 has served as boundary j's predecessor for the last
		// time; reset it for its next lap.
		p.fr.clear(j - 1)
	}
	oldFinal := prev.final
	prev.final, prev.origs = final, origs
	prev.origFPs, prev.spec = origFPs, specLineage
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
