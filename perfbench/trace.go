package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gostats/internal/engine"
)

// span is one timed interval of a traced run. Spans of one session share
// its benchmark-assigned session ID; Parent links a span to the span that
// caused it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"` // 0 for a root span
	Session int64  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the run's time origin
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// scope is where engine events are attributed: the session in flight and
// the span that drives it. It also stamps the untimed events that bound
// the pipeline's input side: when the pipeline started and when the
// producer pushed its last input.
type scope struct {
	session, parent int64
	started, pushed atomic.Int64 // ns since the tracer's origin
}

// tracer keeps a traced run's spans in memory until the run ends. As an
// engine.Sink set on the server's base pipeline config (and on the direct
// engine replays), it turns every timed engine event into a span under
// the current scope and counts all events.
type tracer struct {
	t0       time.Time
	ids      atomic.Int64
	sessions atomic.Int64
	scope    atomic.Pointer[scope]
	counters engine.Counters

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64      { return t.ids.Add(1) }
func (t *tracer) newSession() int64 { return t.sessions.Add(1) }

// enter attributes the engine events that follow to session, under the
// span parent. One session is in flight at a time, so every event belongs
// to the scope entered last.
func (t *tracer) enter(session, parent int64) {
	t.scope.Store(&scope{session: session, parent: parent})
}

// record adds a span with a preassigned ID.
func (t *tracer) record(id, parent, session int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Session: session, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// root records a root span and returns its ID.
func (t *tracer) root(session int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, 0, session, name, start, end)
	return id
}

// Event implements engine.Sink. Timed events become spans named after
// their kind. The pipeline's untimed start, ingest and end events become
// two spans: engine.ingest, from pipeline start to the last input pushed,
// and engine.tail, from the last input pushed to pipeline end — the
// engine time a session waits for after its producer is done.
func (t *tracer) Event(e engine.Event) {
	t.counters.Event(e)
	sc := t.scope.Load()
	if sc == nil {
		return
	}
	switch e.Kind {
	case engine.EvSessionStart:
		sc.started.Store(int64(time.Since(t.t0)))
	case engine.EvIngest:
		sc.pushed.Store(int64(time.Since(t.t0)))
	case engine.EvSessionEnd:
		start, pushed, end := sc.started.Load(), sc.pushed.Load(), int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans = append(t.spans,
			span{ID: t.newID(), Parent: sc.parent, Session: sc.session, Name: "engine.ingest", Start: start, End: pushed},
			span{ID: t.newID(), Parent: sc.parent, Session: sc.session, Name: "engine.tail", Start: pushed, End: end})
		t.mu.Unlock()
	}
	if !e.Start.IsZero() {
		t.record(t.newID(), sc.parent, sc.session, "engine."+e.Kind.String(), e.Start, e.Start.Add(e.Dur))
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// childTotals sums the durations of each span's children by name.
func childTotals(spans []span) map[int64]map[string]time.Duration {
	out := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if out[s.Parent] == nil {
			out[s.Parent] = map[string]time.Duration{}
		}
		out[s.Parent][s.Name] += s.dur()
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string        `json:"name"`
	N     int           `json:"n"`
	Total time.Duration `json:"total_ns"`
	// Self is the total time not covered by the span's children, with
	// overlapping children (parallel workers) counted once.
	Self time.Duration `json:"self_ns"`
}

// selfTimes derives each span name's self time: its duration minus the
// union of its children's intervals, clipped to the span.
func selfTimes(spans []span) []spanStat {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.N++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, kids[s.ID])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes every span, one JSON object per line, followed by the
// per-name self-time table.
func writeSpans(path string, spans []span, stats []spanStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, st := range stats {
		if err := enc.Encode(map[string]spanStat{"self_time": st}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the self-time table.
func printSelfTimes(w io.Writer, stats []spanStat) {
	for _, st := range stats {
		fmt.Fprintf(w, "span %-22s n=%-7d total_ms=%-12.3f self_ms=%.3f\n", st.Name, st.N, ms(st.Total), ms(st.Self))
	}
}
