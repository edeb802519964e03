package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"testing"
)

// envelope wraps payload in a well-formed header and CRC, so the fuzzer
// can reach payload decoding and validation past the integrity checks.
func envelope(payload []byte) []byte {
	buf := append([]byte(nil), magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = append(buf, 0, 0, 0, 0)
	restamp(buf)
	return buf
}

// checkDecoded asserts what an accepted snapshot must satisfy: it
// validates, and it re-encodes to a fixed point (encode → decode →
// encode reproduces the same envelope), so a resumed session can cut
// the snapshot it was resumed from again byte for byte.
func checkDecoded(t *testing.T, s *Snapshot) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("Decode accepted an invalid snapshot: %v", err)
	}
	raw, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode failed on a decoded snapshot: %v", err)
	}
	s2, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode rejected its own encoding: %v", err)
	}
	raw2, err := Encode(s2)
	if err != nil {
		t.Fatalf("re-encode failed: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("unstable round-trip:\n first: %q\nsecond: %q", raw, raw2)
	}
}

// FuzzDecode drives Decode with arbitrary envelopes. Clients reach it
// through the `#resume` control line, so malformed input must come back
// as an error, never a panic. With wrap set, data is treated as the JSON
// payload and sealed in a valid envelope first: random bytes almost
// never pass the CRC, and the payload decoder is what needs the fuzzing.
func FuzzDecode(f *testing.F) {
	good, err := Encode(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	payload := good[12 : len(good)-4]
	f.Add(good, false)
	f.Add(good[:len(good)-1], false)
	f.Add(good[:12], false)
	f.Add([]byte("STCP"), false)
	f.Add([]byte{}, false)
	f.Add(payload, true)
	f.Add([]byte(`{"benchmark":"swaptions","next_chunk":1,"lineage":["e30="]}`), true)
	f.Add([]byte(`{"benchmark":"x","workers":1,"pending":[true,false]}`), true)
	f.Add([]byte(`{"benchmark":"x","controller":{"History":[{}]}}`), true)
	f.Add([]byte(`null`), true)
	f.Add([]byte(`[]`), true)

	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		if wrap {
			data = envelope(data)
		}
		s, err := Decode(data)
		if err != nil {
			return // rejecting malformed input is Decode's job
		}
		checkDecoded(t, s)
	})
}

// FuzzDecodeString drives the base64 form carried on NDJSON control
// lines, the exact bytes a client puts after `#resume `.
func FuzzDecodeString(f *testing.F) {
	good, err := EncodeString(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-4])
	f.Add(good + "=")
	f.Add(base64.StdEncoding.EncodeToString(envelope([]byte(`{"benchmark":"x"}`))))
	f.Add("")
	f.Add("not base64!")

	f.Fuzz(func(t *testing.T, data string) {
		s, err := DecodeString(data)
		if err != nil {
			return
		}
		checkDecoded(t, s)
	})
}
