package serve

import (
	"net/http"
	"net/url"
	"testing"
)

// FuzzSessionQuery drives raw query strings through applyQuery and the
// session-shape limits, the path every request's parameters take before
// a pipeline starts. It must never panic, and a config it accepts must
// validate and lie within the limits — so the 2×chunk rings and the
// 4×chunk adaptive default cannot overflow.
func FuzzSessionQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"seed=7&chunk=16&lookback=4&extra=1&workers=4&adapt=true",
		"chunk=-1", "workers=-5", "lookback=0", "extra=-1",
		"workers=256", "workers=257", "workers=1000000000000",
		"chunk=65536", "chunk=65537", "chunk=4611686018427387904",
		"chunk=9223372036854775807", "lookback=99999999999999999999",
		"extra=64&extra=65", "seed=18446744073709551615", "seed=-1",
		"adapt=maybe", "chunk=bogus", "chunk=%zz", "chunk=+8&workers=0x10",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		cfg := baseConfig()
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		if applyQuery(&cfg, r) != nil || checkShape(cfg) != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted query %q fails Validate: %v", raw, err)
		}
		if cfg.Workers < 0 || cfg.Workers > maxWorkers ||
			cfg.ChunkSize < 1 || cfg.ChunkSize > maxChunk ||
			cfg.Lookback < 1 || cfg.Lookback > maxChunk ||
			cfg.ExtraStates < 0 || cfg.ExtraStates > maxWidth {
			t.Fatalf("accepted query %q has an out-of-range shape: %+v", raw, cfg)
		}
	})
}
