package cluster

import (
	"container/heap"
	"fmt"
	"time"

	"gostats/internal/rng"
	"gostats/internal/workload"
)

// ArrivalSpec describes a synthetic session workload for the cluster
// simulator: when sessions arrive, what they run, how long they hold a
// backend slot, and the cluster they hit. Interarrival and service times
// come from pluggable workload.Distributions (exponential around the
// configured means by default), drawn from seeded internal/rng streams,
// so a (spec, seed) pair names exactly one workload trace — the same
// trace every policy under comparison replays.
type ArrivalSpec struct {
	// Sessions is the number of session arrivals to generate.
	Sessions int
	// Backends is the number of simulated statsserved processes.
	Backends int
	// SlotsPerBackend mirrors -max-sessions: a backend at its slot cap
	// sheds the session back to the gateway, which re-routes it.
	SlotsPerBackend int
	// MeanInterarrival and MeanDuration are the exponential means of
	// session spacing and session service time (virtual time), used when
	// Arrival/Duration are nil.
	MeanInterarrival time.Duration
	MeanDuration     time.Duration
	// Benchmarks is the workload mix, drawn uniformly per session when
	// Mix is nil. Empty means a representative three-codec mix.
	Benchmarks []string
	// Rate and Burst parameterize the gateway token bucket in tokens
	// per (virtual) second; Rate <= 0 disables admission control.
	Rate, Burst float64
	// Seed selects one workload trace.
	Seed uint64

	// Arrival and Duration override the interarrival and service-time
	// laws. Nil defaults to workload.Exp over the means above — which
	// reproduces the pre-workload-layer simulator draw for draw, bit for
	// bit (the refactor's equivalence gate).
	Arrival  workload.Distribution
	Duration workload.Distribution
	// Mix overrides the per-session benchmark choice; nil is a uniform
	// mix over Benchmarks.
	Mix *workload.Mix
	// Modulators shape the arrival rate over virtual time (bursty
	// on/off, diurnal). Specs, not built Modulators: each Simulate call
	// builds fresh instances so one policy's run cannot leak modulator
	// phase state into the next — that would break Compare's
	// same-trace-per-policy guarantee.
	Modulators []workload.ModSpec
	// Trace replays a recorded session trace instead of generating one:
	// arrival times, benchmarks and durations come from the trace and
	// the generator streams go untouched. Sessions is overridden by the
	// trace's length.
	Trace *workload.Trace

	// Migration models checkpointed session mobility (statsgate
	// -migrate): a fraction of sessions halt mid-service, pay a
	// checkpoint cost on their source backend, and resume — after a
	// resume cost — on another backend the policy picks. Zero Rate
	// disables the model and leaves every baseline trace and decision
	// hash untouched.
	Migration MigrationSpec
}

// MigrationSpec parameterizes the simulator's session-mobility model.
// The costs plug in at the same exogenous-duration seam as service
// times: virtual time charged against a backend slot, not a measurement
// of real checkpoint encode/restore work.
type MigrationSpec struct {
	// Rate is the probability a session migrates once mid-service.
	Rate float64
	// CheckpointCost holds the source backend's slot after the halt
	// point while the final snapshot is cut (serve's halt-to-trailer
	// window).
	CheckpointCost time.Duration
	// ResumeCost delays the destination backend's service start while
	// the snapshot restores (snapshot and state decode).
	ResumeCost time.Duration
}

// Enabled reports whether the model draws any migrations at all.
func (m MigrationSpec) Enabled() bool { return m.Rate > 0 }

func (s ArrivalSpec) withDefaults() ArrivalSpec {
	if s.Backends <= 0 {
		s.Backends = 4
	}
	if s.SlotsPerBackend <= 0 {
		s.SlotsPerBackend = 64
	}
	if s.MeanInterarrival <= 0 {
		s.MeanInterarrival = 2 * time.Millisecond
	}
	if s.MeanDuration <= 0 {
		s.MeanDuration = 250 * time.Millisecond
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = []string{"facetrack", "streamcluster", "streamclassifier"}
	}
	if s.Arrival == nil {
		s.Arrival = workload.Exp(float64(s.MeanInterarrival))
	}
	if s.Duration == nil {
		s.Duration = workload.Exp(float64(s.MeanDuration))
	}
	if s.Mix == nil {
		s.Mix = workload.UniformMix(s.Benchmarks)
	}
	if s.Trace != nil {
		s.Sessions = len(s.Trace.Sessions)
	}
	return s
}

// Validate reports spec errors. It is distribution-aware and runs on the
// defaulted spec — the single validation point shared by Simulate,
// Record, and statsgate's flag/spec parsing (via Normalized).
func (s ArrivalSpec) Validate() error {
	if s.Sessions <= 0 {
		return fmt.Errorf("cluster: Sessions must be positive, got %d", s.Sessions)
	}
	if s.Backends < 0 || s.SlotsPerBackend < 0 {
		return fmt.Errorf("cluster: negative Backends/SlotsPerBackend")
	}
	if s.Arrival != nil {
		if err := s.Arrival.Validate(); err != nil {
			return fmt.Errorf("cluster: arrival: %w", err)
		}
	}
	if s.Duration != nil {
		if err := s.Duration.Validate(); err != nil {
			return fmt.Errorf("cluster: duration: %w", err)
		}
	}
	for i, m := range s.Modulators {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("cluster: modulator %d: %w", i, err)
		}
	}
	if s.Migration.Rate < 0 || s.Migration.Rate > 1 {
		return fmt.Errorf("cluster: Migration.Rate %v outside [0, 1]", s.Migration.Rate)
	}
	if s.Migration.CheckpointCost < 0 || s.Migration.ResumeCost < 0 {
		return fmt.Errorf("cluster: negative migration costs")
	}
	return nil
}

// Normalized returns the spec with defaults applied, validated. Callers
// that need to fail fast on bad flags or spec files (statsgate) use this
// instead of duplicating the checks.
func (s ArrivalSpec) Normalized() (ArrivalSpec, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return ArrivalSpec{}, err
	}
	return s, nil
}

// PolicyResult summarizes one policy's run over a workload trace.
type PolicyResult struct {
	Policy   string `json:"policy"`
	Sessions int    `json:"sessions"` // arrivals generated
	// Admitted sessions passed the token bucket; Completed ran to
	// departure on some backend.
	Admitted  int `json:"admitted"`
	Completed int `json:"completed"`
	// ShedAdmission were refused by the gateway bucket; ShedCapacity
	// found every backend at its slot cap even after re-routing.
	ShedAdmission int `json:"shed_admission"`
	ShedCapacity  int `json:"shed_capacity"`
	// Reroutes counts backend sheds retried on another backend (the
	// live path's 429-before-output re-route).
	Reroutes int `json:"reroutes"`
	// Elapsed is the virtual makespan; Throughput is completed sessions
	// per virtual second; ShedRate is total sheds over arrivals.
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_per_s"`
	ShedRate   float64       `json:"shed_rate"`
	// Fairness is Jain's index over per-backend completed sessions:
	// 1 is perfectly even, 1/N is one backend taking everything.
	Fairness   float64 `json:"jain_fairness"`
	PerBackend []int   `json:"per_backend"`
	// Migrations counts sessions halted mid-service and resumed on
	// another backend under spec.Migration; omitted (0) when the model
	// is off, so baseline result files are byte-stable.
	Migrations int64 `json:"migrations,omitempty"`
	// Decisions is an FNV-1a hash over the full routing decision
	// sequence (session seq, chosen backend, outcome). Two runs made
	// identical decisions iff their hashes match — the simulator's
	// determinism tests and cross-run comparisons key on it.
	Decisions uint64 `json:"decisions_hash"`
}

// simEvent is one scheduled callback; ties on time break by insertion
// order, exactly like internal/machine's event queue, which is what
// makes the heap — and therefore the whole simulation — deterministic.
type simEvent struct {
	time int64 // virtual nanoseconds
	seq  int64
	fn   func(now int64)
}

type simHeap []*simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *simHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Simulate replays spec's workload trace against a simulated cluster
// under policy. The decision path is the live gateway's: token-bucket
// admission at virtual arrival time, policy Pick over ready backends,
// shed-and-re-route when the picked backend is at its slot cap, session
// slots freed at exponential departure times. Same spec, same policy ⇒
// identical PolicyResult, bit for bit.
func Simulate(spec ArrivalSpec, policy RoutingPolicy) (PolicyResult, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return PolicyResult{}, err
	}

	backends := make([]Backend, spec.Backends)
	for i := range backends {
		backends[i] = Backend{ID: fmt.Sprintf("sim-%03d", i)}
	}
	reg := NewRegistry(backends...)
	bucket := NewTokenBucket(spec.Rate, spec.Burst)

	root := rng.New(spec.Seed)
	arrivals := root.Derive("cluster-arrivals")
	durations := root.Derive("cluster-durations")
	mix := root.Derive("cluster-mix")
	// Modulators are built per Simulate call from their specs: they carry
	// evolving phase state, and every policy in a Compare must replay the
	// identical arrival trace.
	mods, err := workload.BuildModulators(spec.Modulators, root.Derive("cluster-modulator"))
	if err != nil {
		return PolicyResult{}, err
	}
	// The migration stream is derived only when the model is on: Derive
	// never advances the parent, so an off model provably touches no RNG
	// state the baseline streams see.
	var migRoot *rng.Stream
	if spec.Migration.Enabled() {
		migRoot = root.Derive("cluster-migration")
	}

	res := PolicyResult{Policy: policy.Name(), Sessions: spec.Sessions,
		PerBackend: make([]int, spec.Backends)}
	index := make(map[string]int, spec.Backends) // backend ID → PerBackend slot
	for i, b := range backends {
		index[b.ID] = i
	}
	hash := uint64(14695981039346656037)
	mixHash := func(vs ...uint64) {
		for _, v := range vs {
			for s := 0; s < 64; s += 8 {
				hash = (hash ^ (v >> s & 0xff)) * 1099511628211
			}
		}
	}

	var (
		events   simHeap
		eventSeq int64
		now      int64
	)
	schedule := func(at int64, fn func(now int64)) {
		heap.Push(&events, &simEvent{time: at, seq: eventSeq, fn: fn})
		eventSeq++
	}
	depart := func(id string) func(int64) {
		return func(int64) {
			reg.EndSession(id)
			res.Completed++
			res.PerBackend[index[id]]++
		}
	}
	// resume fires at a migrating session's halt point: the source slot
	// (held through the checkpoint cut) frees, and the policy picks a
	// backend to resume on for ResumeCost plus the remaining service
	// time. The re-pick excludes src — the live gateway's halted backend
	// is draining and sheds anything sent back to it.
	resume := func(seq uint64, benchmark, src string, remaining int64) func(int64) {
		return func(int64) {
			reg.EndSession(src)
			res.Migrations++
			mixHash(seq, rendezvousWeight("halt", src), 4)
			key := SessionKey{Benchmark: benchmark, Seq: seq}
			candidates := reg.Ready()
			for i := range candidates {
				if candidates[i].ID == src {
					candidates = append(candidates[:i:i], candidates[i+1:]...)
					break
				}
			}
			for len(candidates) > 0 {
				i := policy.Pick(candidates, key)
				b := candidates[i]
				if b.InFlight >= spec.SlotsPerBackend {
					reg.MarkShed(b.ID)
					res.Reroutes++
					mixHash(seq, rendezvousWeight("shed", b.ID), 2)
					candidates = append(candidates[:i:i], candidates[i+1:]...)
					continue
				}
				reg.StartSession(b.ID)
				reg.MarkRouted(b.ID)
				schedule(now+int64(spec.Migration.ResumeCost)+remaining, depart(b.ID))
				mixHash(seq, rendezvousWeight("resume", b.ID), 5)
				return
			}
			// Nowhere to resume: the session is lost mid-stream, the
			// simulator's analogue of the gateway's stranded session.
			res.ShedCapacity++
			mixHash(seq, ^uint64(0), 6)
		}
	}

	var arrive func(seq uint64)
	// nextSession yields session seq's benchmark and duration and
	// schedules the following arrival — drawn through the distribution
	// seam, or replayed verbatim from a recorded trace. The generator
	// schedules the next arrival before drawing this session's fields so
	// the trace (arrival times, benchmarks, durations) is independent of
	// routing outcomes; per-stream draw order is one arrival gap (except
	// for the last session), one mix pick, one duration per session —
	// the order the simulator has always used, which is what keeps the
	// seed-42 gateway baseline bit-identical across the refactor.
	nextSession := func(seq uint64) (string, int64) {
		if seq+1 < uint64(spec.Sessions) {
			gap := int64(spec.Arrival.Sample(arrivals))
			if len(mods) > 0 {
				gap = workload.ScaleGap(gap, workload.Factor(mods, now))
			}
			schedule(now+gap, func(int64) { arrive(seq + 1) })
		}
		return spec.Mix.Pick(mix), int64(spec.Duration.Sample(durations))
	}
	if spec.Trace != nil {
		tr := spec.Trace.Sessions
		nextSession = func(seq uint64) (string, int64) {
			if seq+1 < uint64(spec.Sessions) {
				schedule(tr[seq+1].At, func(int64) { arrive(seq + 1) })
			}
			return tr[seq].Benchmark, tr[seq].DurationNS
		}
	}
	arrive = func(seq uint64) {
		benchmark, dur := nextSession(seq)

		if ok, _ := bucket.Admit(time.Duration(now)); !ok {
			res.ShedAdmission++
			mixHash(seq, ^uint64(0), 0)
			return
		}
		res.Admitted++
		key := SessionKey{Benchmark: benchmark, Seq: seq}
		candidates := reg.Ready()
		routed := false
		for len(candidates) > 0 {
			i := policy.Pick(candidates, key)
			b := candidates[i]
			if b.InFlight >= spec.SlotsPerBackend {
				// The backend's 429: account the shed, drop it from the
				// candidate set, let the policy pick again.
				reg.MarkShed(b.ID)
				res.Reroutes++
				mixHash(seq, rendezvousWeight("shed", b.ID), 2)
				candidates = append(candidates[:i:i], candidates[i+1:]...)
				continue
			}
			reg.StartSession(b.ID)
			reg.MarkRouted(b.ID)
			mixHash(seq, rendezvousWeight("route", b.ID), 1)
			routed = true
			if m := spec.Migration; m.Enabled() {
				// One draw stream per session seq: whether it migrates
				// and where in its service time the halt lands.
				if r := migRoot.DeriveN("session", int(seq)); r.Bool(m.Rate) {
					runFor := int64(r.Float64() * float64(dur))
					schedule(now+runFor+int64(m.CheckpointCost),
						resume(seq, benchmark, b.ID, dur-runFor))
					break
				}
			}
			schedule(now+dur, depart(b.ID))
			break
		}
		if !routed {
			res.ShedCapacity++
			mixHash(seq, ^uint64(0), 3)
		}
	}

	first := int64(0)
	if spec.Trace != nil && len(spec.Trace.Sessions) > 0 {
		first = spec.Trace.Sessions[0].At
	}
	schedule(first, func(int64) { arrive(0) })
	heap.Init(&events)
	for events.Len() > 0 {
		e := heap.Pop(&events).(*simEvent)
		now = e.time
		e.fn(now)
	}

	res.Elapsed = time.Duration(now)
	if now > 0 {
		res.Throughput = float64(res.Completed) / time.Duration(now).Seconds()
	}
	res.ShedRate = float64(res.ShedAdmission+res.ShedCapacity) / float64(spec.Sessions)
	res.Fairness = jain(res.PerBackend)
	res.Decisions = hash
	return res, nil
}

// Compare runs every policy against the same workload trace.
func Compare(spec ArrivalSpec, policies []RoutingPolicy) ([]PolicyResult, error) {
	out := make([]PolicyResult, 0, len(policies))
	for _, p := range policies {
		r, err := Simulate(spec, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over per-backend
// session counts; 1 when perfectly balanced, 1/n when one backend takes
// everything, and 1 by convention for an idle or empty cluster.
func jain(counts []int) float64 {
	var sum, sumsq float64
	for _, c := range counts {
		sum += float64(c)
		sumsq += float64(c) * float64(c)
	}
	if sumsq == 0 || len(counts) == 0 {
		return 1
	}
	return sum * sum / (float64(len(counts)) * sumsq)
}
