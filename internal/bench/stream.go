package bench

import (
	"fmt"
	"sort"

	"gostats/internal/engine"
)

// StreamCodec translates one benchmark's inputs and outputs to and from a
// wire form (one JSON object per line — NDJSON). It is what lets the
// serving layer (cmd/statsserved) speak a benchmark's native types
// without knowing them: sessions decode request lines into engine.Input
// and encode committed engine.Output values back out.
//
// A codec must round-trip inputs exactly: DecodeInput(EncodeInput(in))
// yields an input that drives the program identically to in. That is what
// makes a served session reproducible from its request log.
type StreamCodec interface {
	// DecodeInput parses one request line into the benchmark's input type.
	DecodeInput(data []byte) (engine.Input, error)
	// EncodeInput renders an input as one line (no trailing newline).
	EncodeInput(in engine.Input) ([]byte, error)
	// EncodeOutput renders a committed output as one line.
	EncodeOutput(out engine.Output) ([]byte, error)
}

// WireCodec extends StreamCodec with state serialization: what checkpoint
// snapshots (the frontier lineage) need that a served session does not.
// The contract is stronger than "round-trips": DecodeState must yield a
// state that is bit-equivalent to the original under Update, Fingerprint,
// and EncodeState — float64 fields must survive exactly (encoders use
// encoding/json, which round-trips float64 losslessly) and any internal
// derived structure (caches, hash tables) must be rebuilt to the same
// observable contents. That is what makes a resumed session
// byte-identical to an uninterrupted one.
type WireCodec interface {
	StreamCodec
	// EncodeState renders a benchmark state as one line (no newline).
	EncodeState(s engine.State) ([]byte, error)
	// DecodeState parses an EncodeState line back into a live state.
	DecodeState(data []byte) (engine.State, error)
}

var codecs = map[string]func() WireCodec{}

// RegisterCodec adds a benchmark's codec under its registered name. Like
// Register, it panics on duplicates. Every benchmark registers one; the
// serving layer uses it as a StreamCodec, checkpoints as a WireCodec.
func RegisterCodec(name string, ctor func() WireCodec) {
	if _, dup := codecs[name]; dup {
		panic(fmt.Sprintf("bench: duplicate codec %q", name))
	}
	codecs[name] = ctor
}

// CodecFor instantiates the codec registered for name as a StreamCodec;
// the error lists the registered names.
func CodecFor(name string) (StreamCodec, error) {
	ctor, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("bench: no stream codec for %q (have %v)", name, CodecNames())
	}
	return ctor(), nil
}

// WireFor instantiates the codec registered for name as a WireCodec;
// the error lists the registered names.
func WireFor(name string) (WireCodec, error) {
	ctor, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("bench: no wire codec for %q (have %v)", name, CodecNames())
	}
	return ctor(), nil
}

// CodecNames lists benchmarks with codecs in sorted order.
func CodecNames() []string {
	out := make([]string, 0, len(codecs))
	//statslint:allow detpath keys are sorted below before any order-sensitive use
	for n := range codecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
