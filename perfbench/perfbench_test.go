package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload on short sessions, untraced and traced,
// and checks that each metric BENCHMARK.json names is emitted with its
// unit, that every session passed the output check, and that the result
// line has exactly the keys the contract names.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl.Name, seed: 7, seconds: 0.5, trace: traced, inputs: 48, spansDir: t.TempDir()}
			if traced {
				o.seconds = 2 // enough rounds for a stable budget on short sessions
			}
			if wl.Name == "state-checkpoint" {
				o.inputs = 160 // ten chunks: enough commits for #ckpt lines
			}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", wl.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			// Three set-ups each check a warm-up session, plus every
			// measured session.
			if res.checked < setups+res.Attempted {
				t.Errorf("%s trace=%t: %d sessions passed the output check, want >= %d",
					wl.Name, traced, res.checked, setups+res.Attempted)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
			if traced && wl.Name == "state-checkpoint" && res.Metrics["ckpt.snapshots_per_session"].Value == 0 {
				t.Errorf("state-checkpoint emitted no #ckpt lines\n%s", out.String())
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
			}
		}
	}
}
