// Command perfbench is the repository's served-session benchmark.
//
// It starts an in-process internal/serve server on a loopback listener
// and drives it with one closed-loop client: one session in flight over
// one keep-alive connection, the next session posted when the previous
// trailer arrives. Every session's committed output bytes are checked
// against a reference digest computed at set-up. With one session in
// flight, every engine event belongs to the current session, so
// per-session speedup and the per-layer budget stay attributable.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload parallel-commit --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced sessions, replays each layer in
// isolation on the same session, checks that the layers add up to the
// traced session time, and prints the per-layer budget; its spans are
// written to .bench_build/spans when the run ends. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. BENCHMARK.json at the repository root lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options selects one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// inputs caps the session length; 0 keeps the workload's native
	// length. Only the smoke test shortens sessions.
	inputs int
	// spansDir receives a traced run's spans.
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict, printed as the last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// checked counts sessions whose output passed the output check,
	// warm-up, replay and resume sessions included.
	checked int
}

func main() {
	var (
		o       options
		seconds int
		traced  int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed and per-session ?seed=")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traced, "trace", 0, "1: traced run reporting the per-layer budget")
	flag.Parse()
	if seconds < 1 || (traced != 0 && traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1, --trace 0|1 and no positional arguments")
		os.Exit(2)
	}
	o.seconds, o.trace = float64(seconds), traced == 1
	o.spansDir = filepath.Join(".bench_build", "spans")

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, writing human-readable lines to w.
func run(o options, w io.Writer) (*result, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(w, "perfbench workload=%s bench=%s seed=%d seconds=%g trace=%t\n",
		wl.name, wl.bench, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	if o.trace {
		return runTraced(wl, o, w)
	}
	return runUntraced(wl, o, w)
}

// commit names the source revision the binary was built from, when the
// build could see version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// report prints every metric as a named line and records it in res.
func report(w io.Writer, res *result, name string, value float64, unit string) {
	res.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(w, "metric %-34s %14.6g %s\n", name, value, unit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
