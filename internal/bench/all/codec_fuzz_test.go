package all

import (
	"bytes"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/bench/trackutil"
	"gostats/internal/rng"
)

// FuzzStreamCodecs drives every registered NDJSON stream codec with
// arbitrary request lines. The contract under fuzz: DecodeInput may
// reject a line (that is its job), but it must never panic, and any line
// it accepts must re-encode and re-decode to a stable fixed point —
// encode(decode(line)) == encode(decode(encode(decode(line)))). That
// stability is what makes a served session reproducible from its request
// log even when clients send semantically odd but syntactically valid
// lines.
func FuzzStreamCodecs(f *testing.F) {
	names := bench.CodecNames()
	// Seed with genuine encoded inputs from each streamable benchmark,
	// plus structural edge cases.
	for idx, name := range names {
		b := bench.MustNew(name)
		c, err := bench.CodecFor(name)
		if err != nil {
			f.Fatal(err)
		}
		ins := b.Inputs(rng.New(7))
		for k := 0; k < 3 && k < len(ins); k++ {
			line, err := c.EncodeInput(ins[k*len(ins)/3])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(idx), line)
		}
	}
	for idx := range names {
		f.Add(uint8(idx), []byte(`{}`))
		f.Add(uint8(idx), []byte(`null`))
		f.Add(uint8(idx), []byte(`{"Points":null,"Obs":[],"X":[[]],"Y":null}`))
		f.Add(uint8(idx), []byte(`{"Quality":1e308,"Index":-1}`))
		f.Add(uint8(idx), []byte(``))
	}

	f.Fuzz(func(t *testing.T, which uint8, line []byte) {
		name := names[int(which)%len(names)]
		codec, err := bench.CodecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := codec.DecodeInput(line)
		if err != nil {
			return // rejecting malformed input is fine
		}
		enc1, err := codec.EncodeInput(in)
		if err != nil {
			t.Fatalf("%s: EncodeInput failed on decoded input: %v", name, err)
		}
		in2, err := codec.DecodeInput(enc1)
		if err != nil {
			t.Fatalf("%s: codec rejected its own encoding %q: %v", name, enc1, err)
		}
		enc2, err := codec.EncodeInput(in2)
		if err != nil {
			t.Fatalf("%s: re-encode failed: %v", name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: unstable round-trip:\n first: %s\nsecond: %s", name, enc1, enc2)
		}
	})
}

// FuzzDecodeState drives every registered codec's DecodeState with
// arbitrary state lines. Clients reach it through the `#resume` control
// line (the snapshot's lineage entries are codec-encoded states), so the
// contract is the same as for inputs: DecodeState may reject a line but
// must never panic, and a state it accepts must re-encode to a fixed
// point — EncodeState(DecodeState(line)) decodes and re-encodes to the
// same bytes.
func FuzzDecodeState(f *testing.F) {
	names := bench.CodecNames()
	// Seed with one genuine encoded state per benchmark, plus structural
	// edge cases. A seed much over 64 KiB stalls the mutator, so a
	// particle cloud that large (bodytrack's is ~1.2 MB) is cut down to
	// its first particles before encoding: the same wire shape at a
	// fuzzable size. TestCheckpointWireStateRoundTrip covers the
	// full-size states.
	for idx, name := range names {
		wc, err := bench.WireFor(name)
		if err != nil {
			f.Fatal(err)
		}
		s := genStates(bench.MustNew(name), 1)[0]
		line, err := wc.EncodeState(s)
		if c, ok := s.(*trackutil.Cloud); ok && err == nil && len(line) > 64<<10 {
			const keep = 4
			c.P, c.W, c.N = c.P[:keep*c.Dims], c.W[:keep], keep
			line, err = wc.EncodeState(c)
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(idx), line)
		f.Add(uint8(idx), line[:len(line)/2])
		f.Add(uint8(idx), []byte(`{}`))
		f.Add(uint8(idx), []byte(`null`))
		f.Add(uint8(idx), []byte(`[]`))
		f.Add(uint8(idx), []byte(``))
	}

	f.Fuzz(func(t *testing.T, which uint8, line []byte) {
		name := names[int(which)%len(names)]
		wc, err := bench.WireFor(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := wc.DecodeState(line)
		if err != nil {
			return // rejecting malformed input is fine
		}
		enc1, err := wc.EncodeState(s)
		if err != nil {
			t.Fatalf("%s: EncodeState failed on a decoded state: %v", name, err)
		}
		s2, err := wc.DecodeState(enc1)
		if err != nil {
			t.Fatalf("%s: codec rejected its own encoding %q: %v", name, enc1, err)
		}
		enc2, err := wc.EncodeState(s2)
		if err != nil {
			t.Fatalf("%s: re-encode failed: %v", name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: unstable round-trip:\n first: %s\nsecond: %s", name, enc1, enc2)
		}
	})
}
