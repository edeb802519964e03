// Package engine owns the STATS speculation protocol (§II of the paper):
// chunking, alternative-producer speculative states, multiple original
// states, digest-gated validation, ordered commit/abort with in-place
// re-execution, and state recycling.
//
// Before this package existed the protocol was orchestrated three
// separate ways — a standalone batch loop, the hand-rolled
// assembler/worker/commit pipeline in internal/stream, and the simulated
// timeline driven through internal/machine. The engine factors that into
// one protocol layer driven through a pluggable Scheduler:
//
//   - BatchScheduler: one worker per chunk over a bounded input slice, on
//     either execution substrate (Run is its body).
//   - StreamScheduler: the bounded-queue streaming pipeline (Pipeline)
//     with backpressure, slab recycling and optional adaptive chunk
//     sizing, on NativeExec.
//   - SimScheduler: the batch protocol on the deterministic discrete-event
//     machine (internal/machine), producing cycle-accurate traces.
//
// All three run the same primitives (SpeculativeState, ProcessChunk,
// OriginalStates, MatchAny) with the same RNG derivations keyed by chunk
// index, so committed outputs are a pure function of (seed, inputs, chunk
// boundaries) — byte-identical across schedulers when the boundaries
// coincide, regardless of goroutine scheduling or worker count.
//
// The engine emits one canonical event stream (Event) that every consumer
// shares: Metrics renders the binned stage latencies and counters served
// at statsserved /metrics, Counters aggregates protocol-level overhead
// totals for cross-scheduler comparison, and Recorder synthesizes a
// trace.Trace from a native streaming session so internal/critpath can
// attribute the gap to linear speedup to the paper's six overhead
// categories for streaming sessions too, not just simulated runs.
//
// internal/stream remains as a thin compatibility façade over this
// package.
package engine
