package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// orderSink records, in arrival order, the chunk index of every boundary
// validation, commit decision and output emission, and the worker each
// validation was charged to. All decision events come from the single
// commit-stage goroutine, but other event kinds arrive concurrently from
// workers, so the sink locks.
type orderSink struct {
	mu         sync.Mutex
	validated  []int // EvValidated
	validators []int // EvValidated's Worker
	decisions  []int // EvCommitted / EvAborted
	outputs    []int // EvOutputs
}

func (s *orderSink) Event(e engine.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case engine.EvValidated:
		s.validated = append(s.validated, e.Chunk)
		s.validators = append(s.validators, e.Worker)
	case engine.EvCommitted, engine.EvAborted:
		s.decisions = append(s.decisions, e.Chunk)
	case engine.EvOutputs:
		s.outputs = append(s.outputs, e.Chunk)
	}
}

// TestFrontierCommitOrder is the commit frontier's end-to-end ordering
// property: however the workers' results arrive, every boundary
// j = 1..Chunks-1 is validated exactly once, in input order, by the
// commit stage (Worker -1); the commit/abort decisions and the output
// emissions are applied in strict input order, exactly one decision per
// chunk; and the committed byte sequence matches the sequential batch
// reference. Run under -race this doubles as a concurrency check on the
// worker → commit-stage hand-off.
func TestFrontierCommitOrder(t *testing.T) {
	for _, name := range []string{"facetrack", "streamclassifier"} {
		for _, workers := range []int{2, 3, 5} {
			for _, seed := range []uint64{3, 9} {
				t.Run(name, func(t *testing.T) {
					b, err := bench.New(name)
					if err != nil {
						t.Fatal(err)
					}
					inputs := b.Inputs(rng.New(1))
					if len(inputs) > 96 {
						inputs = inputs[:96]
					}
					cfg := engine.Config{Chunks: 8, Lookback: 4, ExtraStates: 1, InnerWidth: 1, Seed: seed}

					ref, err := (&engine.BatchScheduler{}).RunSlice(b, inputs, cfg)
					if err != nil {
						t.Fatalf("batch reference: %v", err)
					}

					sink := &orderSink{}
					rep, err := (&engine.StreamScheduler{Workers: workers, Sink: sink}).RunSlice(b, inputs, cfg)
					if err != nil {
						t.Fatalf("stream (workers=%d seed=%d): %v", workers, seed, err)
					}

					if len(sink.validated) != cfg.Chunks-1 {
						t.Fatalf("workers=%d seed=%d: %d validation events, want %d",
							workers, seed, len(sink.validated), cfg.Chunks-1)
					}
					for i, c := range sink.validated {
						if c != i+1 || sink.validators[i] != -1 {
							t.Fatalf("workers=%d seed=%d: validation %d was boundary %d on worker %d, want boundary %d on the commit stage (-1)",
								workers, seed, i, c, sink.validators[i], i+1)
						}
					}
					for _, seq := range []struct {
						what string
						got  []int
					}{{"decision", sink.decisions}, {"output", sink.outputs}} {
						if len(seq.got) != cfg.Chunks {
							t.Fatalf("workers=%d seed=%d: %d %s events, want %d",
								workers, seed, len(seq.got), seq.what, cfg.Chunks)
						}
						for j, c := range seq.got {
							if c != j {
								t.Fatalf("workers=%d seed=%d: %s %d was for chunk %d, want input order",
									workers, seed, seq.what, j, c)
							}
						}
					}

					if len(rep.Outputs) != len(ref.Outputs) {
						t.Fatalf("workers=%d seed=%d: %d outputs, batch %d",
							workers, seed, len(rep.Outputs), len(ref.Outputs))
					}
					for i := range ref.Outputs {
						if !reflect.DeepEqual(rep.Outputs[i], ref.Outputs[i]) {
							t.Fatalf("workers=%d seed=%d: output %d differs from batch",
								workers, seed, i)
						}
					}
				})
			}
		}
	}
}
