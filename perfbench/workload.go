package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"time"

	"gostats/internal/bench"
	_ "gostats/internal/bench/all"
	"gostats/internal/engine"
	"gostats/internal/serve"
	"gostats/internal/stream"
	loadgen "gostats/internal/workload"
)

// workload is one traffic mix: every session posts the same benchmark's
// native input stream. Each is chosen so one layer dominates its session
// time (see BENCHMARK.json for the one-line reasons).
type workload struct {
	name  string
	bench string
	// ckpt is the ?ckpt= commit interval; 0 leaves checkpointing off.
	ckpt int
}

var workloads = []workload{
	// NDJSON read and decode of ~4 KB lines dominate; the engine is a few
	// percent of the session.
	{name: "ingest-heavy", bench: "streamclassifier"},
	// ~1 ms of compute per 54 B input, every speculation commits: the
	// workers dominate and decode is negligible.
	{name: "parallel-commit", bench: "swaptions"},
	// Almost every chunk aborts: wasted speculation, validation and
	// in-order re-execution on the commit thread.
	{name: "abort-heavy", bench: "fluidanimate"},
	// 4.6 MB of state: state clones and #ckpt snapshots every 8 commits.
	// The only workload that checkpoints.
	{name: "state-checkpoint", bench: "dedupstream", ckpt: 8},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// pipelineConfig is the server's base pipeline configuration: one worker
// per CPU, fixed chunking, no adaptation.
func pipelineConfig(seed uint64) stream.Config {
	return stream.Config{
		ChunkSize:   16,
		Lookback:    4,
		ExtraStates: 1,
		Workers:     runtime.NumCPU(),
		Seed:        seed,
	}
}

// fixture is everything a run sets up before its first timed session.
type fixture struct {
	wl     workload
	seed   uint64
	codec  bench.StreamCodec
	wire   bench.WireCodec // non-nil when the workload checkpoints
	inputs []engine.Input
	req    *request
	// refLines are the reference's encoded committed outputs, kept so a
	// resumed session's suffix can be checked.
	refLines [][]byte
}

// newFixture generates the inputs, encodes the request body and computes
// the reference digest of the committed output.
func newFixture(wl workload, seed uint64, n int) (*fixture, error) {
	prog, err := bench.New(wl.bench)
	if err != nil {
		return nil, err
	}
	f := &fixture{wl: wl, seed: seed}
	if f.codec, err = bench.CodecFor(wl.bench); err != nil {
		return nil, err
	}
	if wl.ckpt > 0 {
		if f.wire, err = bench.WireFor(wl.bench); err != nil {
			return nil, err
		}
	}
	f.inputs = loadgen.SessionInputs(prog, n, seed)
	var body bytes.Buffer
	ends := make([]int, len(f.inputs))
	for i, in := range f.inputs {
		line, err := f.codec.EncodeInput(in)
		if err != nil {
			return nil, fmt.Errorf("encoding input %d: %w", i, err)
		}
		body.Write(line)
		body.WriteByte('\n')
		ends[i] = body.Len()
	}
	// The reference runs checkpointing off: snapshots must not change a
	// single committed byte, so the served state-checkpoint sessions are
	// checked against the plain pipeline.
	h := sha256.New()
	_, err = runPipeline(prog, pipelineConfig(seed), f.inputs, func(o engine.Output) error {
		line, err := f.codec.EncodeOutput(o)
		if err != nil {
			return err
		}
		f.refLines = append(f.refLines, line)
		h.Write(line)
		h.Write([]byte{'\n'})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}
	if len(f.refLines) != len(f.inputs) {
		return nil, fmt.Errorf("reference pipeline committed %d outputs for %d inputs", len(f.refLines), len(f.inputs))
	}
	f.req = &request{
		path:    f.path(false),
		body:    body.Bytes(),
		ends:    ends,
		outputs: len(f.inputs),
	}
	h.Sum(f.req.digest[:0])
	return f, nil
}

// path is the session URL; resume selects a resume=1 session.
func (f *fixture) path(resume bool) string {
	p := fmt.Sprintf("/v1/stream/%s?seed=%d", f.wl.bench, f.seed)
	if f.wl.ckpt > 0 {
		p += fmt.Sprintf("&ckpt=%d", f.wl.ckpt)
	}
	if resume {
		p += "&resume=1"
	}
	return p
}

// resumeRequest builds a resume=1 session restarting from a snapshot that
// covers the first from inputs: a #resume line, then the remaining input
// lines, checked against the reference's remaining outputs.
func (f *fixture) resumeRequest(b64 string, from int) *request {
	start := 0
	if from > 0 {
		start = f.req.ends[from-1]
	}
	ends := make([]int, 0, len(f.req.ends)-from)
	for _, e := range f.req.ends[from:] {
		ends = append(ends, e-start)
	}
	h := sha256.New()
	for _, line := range f.refLines[from:] {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	r := &request{
		path:    f.path(true),
		prefix:  []byte("#resume " + b64 + "\n"),
		body:    f.req.body[start:],
		ends:    ends,
		outputs: len(ends),
	}
	h.Sum(r.digest[:0])
	return r
}

// server is an in-process internal/serve server on a loopback listener.
type server struct {
	addr string
	hs   *http.Server
	done chan error
}

// startServer serves base (cloned per session) on an ephemeral loopback
// port.
func startServer(base stream.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		addr: ln.Addr().String(),
		hs: &http.Server{
			Handler:           serve.New(base, serve.Options{}).Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          log.New(io.Discard, "", 0),
		},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// Close stops the server and waits for its accept loop to exit.
func (s *server) Close() {
	s.hs.Close()
	<-s.done
}

// runPipeline drives a stream pipeline directly with already-decoded
// inputs, handing each committed output to emit on the calling goroutine.
func runPipeline(prog engine.Program, cfg stream.Config, inputs []engine.Input, emit func(engine.Output) error) (stream.Stats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := stream.New(ctx, prog, cfg)
	if err != nil {
		return stream.Stats{}, err
	}
	pushed := make(chan error, 1)
	go func() {
		defer p.Close()
		for _, in := range inputs {
			if err := p.Push(ctx, in); err != nil {
				pushed <- err
				return
			}
		}
		pushed <- nil
	}()
	var emitErr error
	for o := range p.Outputs() {
		if emitErr == nil {
			if emitErr = emit(o); emitErr != nil {
				cancel()
			}
		}
	}
	st, runErr := p.Wait()
	pushErr := <-pushed
	if emitErr != nil {
		return st, emitErr
	}
	return st, errors.Join(runErr, pushErr)
}
