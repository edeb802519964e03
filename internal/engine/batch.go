package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/rng"
	"gostats/internal/trace"
)

// decision is the commit status of a chunk.
type decision int

const (
	decisionPending decision = iota
	decisionCommit
	decisionAbort
	// decisionFatal poisons the chain when a predecessor exhausted its
	// fault tolerance: the worker releases its states and propagates the
	// poison instead of committing.
	decisionFatal
)

// slot carries the cross-chunk coordination state for one chunk: the
// speculative state its worker publishes for checking, and the commit
// decision (plus recovery state) its predecessor publishes back.
type slot struct {
	mu Mutex
	cv Cond

	spec      State
	specReady bool
	// specFault marks that the worker exhausted its retries without ever
	// publishing a speculative state; the predecessor decides abort
	// without a comparison and the worker recovers from the true state.
	specFault bool

	dec       decision
	trueFinal State
	srcLoc    int
}

// run holds one execution of the STATS model.
type run struct {
	prog   Program
	cfg    Config
	inputs []Input
	bounds [][2]int
	slots  []*slot
	outs   [][]Output
	root   *rng.Stream
	pool   *StatePool
	sink   Sink
	inj    Injector // prog's fault injector, if it carries one
	att    attempts // normalized fault policy and the chunk attempt loop

	threads atomic.Int64
	states  atomic.Int64
	commits atomic.Int64
	aborts  atomic.Int64

	fatalOnce sync.Once
	fatalErr  error // terminal fault; read only after the workers join
}

// setFatal records the session's terminal error (first one wins).
func (rt *run) setFatal(err error) {
	rt.fatalOnce.Do(func() { rt.fatalErr = err })
}

// Run executes the STATS execution model for p over inputs on the given
// executor, returning the ordered outputs and resource/commit statistics.
// Must be called from an executor context (for SimExec, from inside
// machine.Run). Run is the BatchScheduler body; use BatchScheduler to
// also receive the engine event stream.
func Run(ex Exec, p Program, inputs []Input, cfg Config) (*Report, error) {
	return runBatch(ex, p, inputs, cfg, nil)
}

func runBatch(ex Exec, p Program, inputs []Input, cfg Config, sink Sink) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: empty input stream")
	}
	rt := &run{
		prog:   p,
		cfg:    cfg,
		inputs: inputs,
		bounds: Partition(len(inputs), cfg.Chunks),
		root:   rng.New(cfg.Seed).Derive("stats:" + p.Name()),
		pool:   NewStatePool(p),
		sink:   sink,
		// Run's signature supplies no context, so backoff sleeps always
		// run to completion.
		att: attempts{pol: cfg.Fault.normalized(), ctx: context.TODO(), sink: sink},
	}
	rt.inj, _ = p.(Injector)
	chunks := len(rt.bounds)
	rt.slots = make([]*slot, chunks)
	rt.outs = make([][]Output, chunks)

	rt.emit(Event{Kind: EvSessionStart, Chunk: -1, Worker: -1, Start: rt.now()})
	rt.emit(Event{Kind: EvIngest, Chunk: -1, Worker: -1, N: len(inputs)})

	// --- Sequential code before the STATS region (§III-D). ---
	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PreRegionWork())

	// --- Setup: allocate runtime structures, prepare the initial state
	// (first state copy of Fig. 6 happens here). ---
	ex.SetCat(trace.CatSetup)
	ex.Compute(p.SetupWork(chunks))
	for j := range rt.slots {
		mu := ex.NewMutex()
		rt.slots[j] = &slot{mu: mu, cv: ex.NewCond(mu), srcLoc: -1}
	}
	rt.slots[0].dec = decisionCommit
	initial := p.Initial(rt.root.Derive("init"))
	rt.states.Add(1)
	ex.Copy(p.StateBytes(), -1, p.Name()+".init")
	rt.states.Add(1) // the copy handed to the first worker

	// --- Spawn one worker per chunk. ---
	ex.SetCat(trace.CatChunkWork)
	handles := make([]Handle, chunks)
	for j := 0; j < chunks; j++ {
		j := j
		var start State
		if j == 0 {
			start = initial
		}
		handles[j] = ex.Spawn(fmt.Sprintf("%s-w%d", p.Name(), j), func(we Exec) {
			rt.worker(we, j, start)
		})
		rt.threads.Add(1)
	}
	for _, h := range handles {
		ex.Join(h)
	}

	// --- Teardown and post-region sequential code. ---
	ex.SetCat(trace.CatSetup)
	ex.Compute(p.TeardownWork(chunks))
	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PostRegionWork())

	rep := &Report{
		Chunks:         chunks,
		Commits:        int(rt.commits.Load()),
		Aborts:         int(rt.aborts.Load()),
		ThreadsCreated: int(rt.threads.Load()),
		StatesCreated:  int(rt.states.Load()),
		StateBytes:     p.StateBytes(),
	}
	for _, outs := range rt.outs {
		rep.Outputs = append(rep.Outputs, outs...)
	}
	rt.emit(Event{Kind: EvSessionEnd, Chunk: -1, Worker: -1})
	if rt.fatalErr != nil {
		return nil, rt.fatalErr
	}
	return rep, nil
}

// emit delivers e to the attached sink, if any.
func (rt *run) emit(e Event) {
	if rt.sink != nil {
		rt.sink.Event(e)
	}
}

// now reads the wall clock only when timing is being collected.
func (rt *run) now() time.Time {
	if rt.sink == nil {
		return time.Time{}
	}
	//statslint:allow detpath instrumentation helper: value only feeds Event timing via since()
	return time.Now()
}

// since converts a phase start from now() into a duration.
func (rt *run) since(t0 time.Time) time.Duration {
	if rt.sink == nil || t0.IsZero() {
		return 0
	}
	//statslint:allow detpath instrumentation helper: durations land in Event fields, never in outputs
	return time.Since(t0)
}

// chunkInputs returns chunk j's input slice.
func (rt *run) chunkInputs(j int) []Input {
	b := rt.bounds[j]
	return rt.inputs[b[0]:b[1]]
}

// window returns the last min(Lookback, len) inputs of chunk j: the
// inputs replayed both by chunk j's original-state replicas and by chunk
// j+1's alternative producer.
func (rt *run) window(j int) []Input {
	c := rt.chunkInputs(j)
	k := rt.cfg.Lookback
	if k > len(c) {
		k = len(c)
	}
	return c[len(c)-k:]
}

// worker runs the lifecycle of chunk j (§II-B and Fig. 5 of the paper).
// Each protocol phase runs under fault isolation: a panic or missed
// deadline in the speculative phase is retried with backoff, then — if
// the retry budget exhausts — degraded to an abort-style re-execution
// from the true predecessor state; only a fault there too fails the
// session (with a structured error, never a process crash).
func (rt *run) worker(ex Exec, j int, start State) {
	p := rt.prog
	myRng := rt.root.DeriveN("worker", j)
	jit := myRng.Derive("jitter")
	g := NewGang(ex, fmt.Sprintf("%s-w%d", p.Name(), j), rt.cfg.InnerWidth,
		func() { rt.threads.Add(1) })
	defer func() {
		if g != nil {
			g.Close(ex)
		}
	}()

	last := j == len(rt.bounds)-1
	rt.emit(Event{Kind: EvChunk, Chunk: j, Worker: j, N: len(rt.chunkInputs(j))})
	tSpec := rt.now()

	// --- Speculative phase, fault-isolated with retry/backoff. RNG
	// derivation is pure, so a retried attempt re-derives the exact
	// substreams of the faulted one and its results are byte-identical to
	// a fault-free run. ---
	var outs []Output
	var final State
	var origs []State
	published := false
	site := SiteAltProducer
	specFault := rt.att.retry(j, j, &site, myRng, func(n int) {
		outs, final, origs = rt.speculateOnce(ex, g, j, n, start, myRng, jit, &published, &site)
	})
	if specFault == nil {
		rt.emit(Event{Kind: EvSpeculated, Chunk: j, Worker: j,
			N: len(rt.chunkInputs(j)), Start: tSpec, Dur: rt.since(tSpec)})
	} else if j > 0 && !published {
		// The predecessor is (or will be) waiting on a speculative state
		// that will never arrive; mark the slot faulted so it decides
		// abort without a comparison instead of blocking forever.
		sl := rt.slots[j]
		sl.mu.Lock(ex)
		sl.specReady = true
		sl.specFault = true
		sl.cv.Broadcast(ex)
		sl.mu.Unlock(ex)
	}

	// Wait for this chunk's own commit decision (program order).
	dec, tf, srcLoc := decisionCommit, State(nil), -1
	if j > 0 {
		sl := rt.slots[j]
		sl.mu.Lock(ex)
		for sl.dec == decisionPending {
			sl.cv.Wait(ex)
		}
		dec, tf, srcLoc = sl.dec, sl.trueFinal, sl.srcLoc
		sl.mu.Unlock(ex)
	}
	if dec == decisionFatal {
		// A predecessor already failed the session; release what this
		// chunk holds and pass the poison down the chain.
		if last {
			rt.pool.Release(final)
		}
		for _, o := range origs {
			rt.pool.Release(o)
		}
		rt.poison(ex, j)
		return
	}

	if dec == decisionAbort || specFault != nil {
		// Mispeculation (§III-E) or exhausted speculative retries: rerun
		// the chunk from the true state produced by the predecessor. The
		// speculative run's states — including its final state, origs[0] —
		// are dead; retire them before the recovery run re-materializes
		// the set. (A faulted speculation carries none.)
		rt.aborts.Add(1)
		if specFault != nil {
			rt.emit(Event{Kind: EvDegraded, Chunk: j, Worker: j, N: specFault.Attempt})
		}
		rt.emit(Event{Kind: EvAborted, Chunk: j, Worker: j})
		if last {
			rt.pool.Release(final)
		}
		for _, o := range origs {
			rt.pool.Release(o)
		}
		site = SiteReexec
		rexFault := rt.att.retry(j, j, &site, myRng, func(n int) {
			outs, final, origs = rt.reexecOnce(ex, g, j, n, tf, srcLoc, myRng, jit, last)
		})
		if rexFault != nil {
			rt.setFatal(&FaultError{Fault: rexFault})
			rt.poison(ex, j)
			return
		}
	} else {
		rt.commits.Add(1)
		rt.emit(Event{Kind: EvCommitted, Chunk: j, Worker: j})
	}
	rt.outs[j] = outs
	rt.emit(Event{Kind: EvOutputs, Chunk: j, Worker: j, N: len(outs)})

	// Now committed: decide the successor chunk's fate by comparing its
	// speculative state against this chunk's original states (§II-B).
	if !last {
		nxt := rt.slots[j+1]
		nxt.mu.Lock(ex)
		for !nxt.specReady {
			nxt.cv.Wait(ex)
		}
		spec, sFault := nxt.spec, nxt.specFault
		nxt.mu.Unlock(ex)

		matched := false
		if !sFault {
			t0 := rt.now()
			var inspected int
			matched, inspected = matchAnyN(ex, p, origs, spec)
			rt.emit(Event{Kind: EvValidated, Chunk: j + 1, Worker: j,
				N: inspected, Matched: matched, Start: t0, Dur: rt.since(t0)})
		}
		// The boundary is resolved: the replica originals and the
		// successor's published speculative copy are both dead. origs[0]
		// (this chunk's final state) lives on as the successor's recovery
		// state. (spec is nil when the successor never published one.)
		rt.pool.ReleaseReplicas(origs)
		rt.pool.Release(spec)
		nxt.mu.Lock(ex)
		nxt.trueFinal = final
		nxt.srcLoc = ex.Loc()
		if matched {
			nxt.dec = decisionCommit
		} else {
			nxt.dec = decisionAbort
		}
		nxt.cv.Broadcast(ex)
		nxt.mu.Unlock(ex)
	}
}

// poison propagates a fatal failure to chunk j+1's decision slot so the
// rest of the chain unwinds instead of deadlocking on a decision that
// will never be published.
func (rt *run) poison(ex Exec, j int) {
	if j == len(rt.bounds)-1 {
		return
	}
	nxt := rt.slots[j+1]
	nxt.mu.Lock(ex)
	nxt.dec = decisionFatal
	nxt.cv.Broadcast(ex)
	nxt.mu.Unlock(ex)
}

// speculateOnce is one fault-isolated attempt at chunk j's speculative
// phase: alternative production (chunk 0 instead uses the dispatched
// initial state), publishing the speculative copy — once; retries reuse
// the already published copy, which is still the state validation must
// check — the chunk body, and original-state generation. site tracks the
// protocol phase for fault attribution.
func (rt *run) speculateOnce(ex Exec, g *Gang, j, attempt int, start State, myRng, jit *rng.Stream, published *bool, site *FaultSite) ([]Output, State, []State) {
	p := guardProgram(rt.prog, rt.att.pol.ChunkDeadline)
	last := j == len(rt.bounds)-1
	s := start
	if j == 0 {
		injectAt(rt.inj, SiteAltProducer, j, attempt, nil)
		if attempt > 0 {
			// The dispatched initial state was consumed (and possibly
			// half-mutated) by the faulted attempt; rebuild it from the
			// same derivation the setup phase used.
			s = rt.prog.Initial(rt.root.Derive("init"))
			rt.states.Add(1)
		}
	} else {
		// Alternative producer: build the speculative start state by
		// replaying only the last k inputs of the previous chunk from a
		// cold state (§III-B "Generating speculative states").
		t0 := rt.now()
		s = SpeculativeState(ex, p, rt.pool, rt.window(j-1), myRng, rt.countState)
		// The injector sees the produced state before it is published:
		// a corrupted speculative state poisons the published copy and
		// the body run together, so boundary validation catches it.
		s = injectAt(rt.inj, SiteAltProducer, j, attempt, s)
		rt.emit(Event{Kind: EvAltProduced, Chunk: j, Worker: j,
			N: len(rt.window(j - 1)), Start: t0, Dur: rt.since(t0)})
		if !*published {
			// Publish a copy of the speculative state so the predecessor
			// can check it while this worker speculatively computes the
			// chunk.
			t1 := rt.now()
			spec := rt.pool.Clone(s)
			rt.states.Add(1)
			ex.Copy(p.StateBytes(), ex.Loc(), p.Name()+".spec")
			rt.emit(Event{Kind: EvSpecPublished, Chunk: j, Worker: j, Start: t1, Dur: rt.since(t1)})
			sl := rt.slots[j]
			sl.mu.Lock(ex)
			sl.spec = spec
			sl.specReady = true
			sl.cv.Broadcast(ex)
			sl.mu.Unlock(ex)
			*published = true
		}
	}

	*site = SiteBody
	s = injectAt(rt.inj, SiteBody, j, attempt, s)
	// Speculatively (for j > 0) process the chunk.
	outs, snapshot, final := rt.runChunk(ex, p, g, j, s, myRng.Derive("body"), jit, trace.CatChunkWork, EvBody)

	var origs []State
	if !last {
		*site = SiteOrigStates
		injectAt(rt.inj, SiteOrigStates, j, attempt, nil)
		origs = rt.genOrigStates(ex, p, j, snapshot, final, myRng)
		// The snapshot has been replayed into the replicas; retire it.
		rt.pool.Release(snapshot)
	}
	return outs, final, origs
}

// reexecOnce is one fault-isolated attempt at recovery re-execution from
// the true predecessor state tf (nil for chunk 0, whose true start state
// is a rebuilt initial state).
func (rt *run) reexecOnce(ex Exec, g *Gang, j, attempt int, tf State, srcLoc int, myRng, jit *rng.Stream, last bool) ([]Output, State, []State) {
	p := guardProgram(rt.prog, rt.att.pol.ChunkDeadline)
	injectAt(rt.inj, SiteReexec, j, attempt, nil)
	t0 := rt.now()
	var s2 State
	if tf != nil {
		s2 = rt.pool.Clone(tf)
	} else {
		s2 = rt.prog.Initial(rt.root.Derive("init"))
	}
	rt.states.Add(1)
	ex.Copy(p.StateBytes(), srcLoc, p.Name()+".recover")
	outs, snapshot, final := rt.runChunk(ex, p, g, j, s2, myRng.Derive("reexec"), jit, trace.CatReexec, EvReexec)
	rt.emit(Event{Kind: EvReexec, Chunk: j, Worker: j,
		N: len(rt.chunkInputs(j)), Start: t0, Dur: rt.since(t0)})
	var origs []State
	if !last {
		origs = rt.genOrigStates(ex, p, j, snapshot, final, myRng.Derive("reorig"))
		rt.pool.Release(snapshot)
	}
	return outs, final, origs
}

// countState and countThread are the accounting hooks the chunk
// primitives report through.
func (rt *run) countState()  { rt.states.Add(1) }
func (rt *run) countThread() { rt.threads.Add(1) }

// runChunk runs chunk j's updates from state s via the ProcessChunk
// primitive, snapshotting the state window-length inputs before the end
// (the base the original-state replicas replay from). It returns the
// outputs, the snapshot (nil for the last chunk) and the final state.
// bodyKind labels the body event (EvBody for speculative runs, EvReexec
// timing is emitted by the caller around the recovery run).
func (rt *run) runChunk(ex Exec, p Program, g *Gang, j int, s State, rnd, jit *rng.Stream, cat trace.Category, bodyKind Kind) ([]Output, State, State) {
	chunk := rt.chunkInputs(j)
	snapAt := -1
	if j != len(rt.bounds)-1 {
		snapAt = len(chunk) - len(rt.window(j))
	}
	t0 := rt.now()
	outs, snapshot, final := ProcessChunk(ex, p, rt.pool, g, chunk, snapAt, s, rnd, jit, cat, rt.countState, nil)
	if bodyKind == EvBody {
		rt.emit(Event{Kind: EvBody, Chunk: j, Worker: j, N: len(chunk), Start: t0, Dur: rt.since(t0)})
	}
	if snapshot != nil {
		rt.emit(Event{Kind: EvSnapshot, Chunk: j, Worker: j})
	}
	return outs, snapshot, final
}

// genOrigStates produces the set of original states for chunk j's
// boundary via the OriginalStates primitive: the worker's own final state
// plus ExtraStates replicas, each re-running the last window inputs from
// the snapshot with fresh nondeterminism on its own thread (Fig. 5,
// cores 0–2).
func (rt *run) genOrigStates(ex Exec, p Program, j int, snapshot, final State, rnd *rng.Stream) []State {
	tag := fmt.Sprintf("%s-r%d", rt.prog.Name(), j)
	t0 := rt.now()
	origs := OriginalStates(ex, p, rt.pool, tag, rt.window(j), snapshot, final,
		rt.cfg.ExtraStates, rnd, rt.countThread, rt.countState)
	rt.emit(Event{Kind: EvOrigStates, Chunk: j, Worker: j,
		N: len(origs) - 1, M: len(rt.window(j)), Start: t0, Dur: rt.since(t0)})
	return origs
}

// RunSequential executes the original sequential program (the Fig. 9
// baseline): no STATS runtime, no original TLP.
func RunSequential(ex Exec, p Program, inputs []Input, seed uint64) *Report {
	return runPlain(ex, p, inputs, 1, seed)
}

// RunOriginal executes the program with only its original TLP (the black
// bars of Fig. 9): a sequential outer loop whose updates run on a gang of
// the given width.
func RunOriginal(ex Exec, p Program, inputs []Input, width int, seed uint64) *Report {
	return runPlain(ex, p, inputs, width, seed)
}

func runPlain(ex Exec, p Program, inputs []Input, width int, seed uint64) *Report {
	root := rng.New(seed).Derive("plain:" + p.Name())
	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PreRegionWork())

	ex.SetCat(trace.CatChunkWork)
	threads := 0
	g := NewGang(ex, p.Name()+"-orig", width, func() { threads++ })
	s := p.Initial(root.Derive("init"))
	jit := root.Derive("jitter")
	upd := root.Derive("updates")
	outs := make([]Output, 0, len(inputs))
	for _, in := range inputs {
		uw := p.UpdateCost(in, s)
		var out Output
		s, out = p.Update(s, in, upd)
		g.Run(ex, uw, trace.CatChunkWork, jit, uw.ShareJitter)
		outs = append(outs, out)
	}
	g.Close(ex)

	ex.SetCat(trace.CatSeqCode)
	ex.Compute(p.PostRegionWork())
	return &Report{
		Outputs:        outs,
		Chunks:         1,
		Commits:        1,
		ThreadsCreated: threads,
		StatesCreated:  1,
		StateBytes:     p.StateBytes(),
	}
}
