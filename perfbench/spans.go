package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/trace"
)

// clock is the benchmark's trace.Recorder: it stamps each event with the
// wall-clock time it arrived and keeps it in memory, tagged with the
// statement the driving loop has marked as running. Library workloads run
// one statement at a time, so every event between a statement's begin and end
// marks belongs to it; in serve-zipf sessions interleave and the tag is 0.
type clock struct {
	base time.Time

	mu   sync.Mutex
	stmt int64
	evs  []stamped
}

// stamped is one recorded event, or a statement mark when ev.Kind is empty.
type stamped struct {
	at   time.Duration // since clock.base
	stmt int64
	mark string // "begin" or "end" for statement marks
	ev   trace.Event
}

func newClock() *clock { return &clock{base: time.Now()} }

// Record implements trace.Recorder.
func (c *clock) Record(ev trace.Event) {
	at := time.Since(c.base)
	c.mu.Lock()
	c.evs = append(c.evs, stamped{at: at, stmt: c.stmt, ev: ev})
	c.mu.Unlock()
}

// begin marks the start of statement id.
func (c *clock) begin(id int64) {
	at := time.Since(c.base)
	c.mu.Lock()
	c.stmt = id
	c.evs = append(c.evs, stamped{at: at, stmt: id, mark: "begin"})
	c.mu.Unlock()
}

// end marks the end of statement id.
func (c *clock) end(id int64) {
	at := time.Since(c.base)
	c.mu.Lock()
	c.evs = append(c.evs, stamped{at: at, stmt: id, mark: "end"})
	c.stmt = 0
	c.mu.Unlock()
}

// events returns the recorded events in arrival order.
func (c *clock) events() []stamped {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]stamped(nil), c.evs...)
}

// span is one timed interval at a layer boundary.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0 for statement spans
	Stmt   int64         `json:"stmt"`
	Name   string        `json:"name"` // stmt, probe, optimize, exec, harvest
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Violated marks an exec span cut short by a checkpoint violation: the
	// work it did was discarded.
	Violated bool `json:"violated,omitempty"`
	// Self is the duration minus the part the span's children cover.
	Self time.Duration `json:"self_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// buildSpans turns the events of sequentially run statements into spans.
// Each statement span [begin, end] gets children:
//
//	probe     Run entry to cache_hit, or to optimize_start on a miss
//	optimize  optimize_start to optimize_done (includes checkpoint placement)
//	exec      from the plan being ready (optimize_done, cache_hit or
//	          cache_miss) to checkpoint_violated or query_done
//	harvest   checkpoint_violated to reoptimize
//
// cached says the statements ran through the plan cache, so a probe span
// opens at each statement's begin.
func buildSpans(evs []stamped, cached bool) []span {
	var out []span
	add := func(s span) int {
		s.ID = len(out) + 1
		out = append(out, s)
		return s.ID
	}
	var (
		parent               int
		stmt                 int64
		probeOpen            bool
		stmtStart, optStart  time.Duration
		execStart, harvStart time.Duration
		execOpen, optOpen    bool
		harvOpen             bool
	)
	child := func(name string, start, end time.Duration, violated bool) {
		add(span{Parent: parent, Stmt: stmt, Name: name, Start: start, End: end, Violated: violated})
	}
	for _, e := range evs {
		if e.mark == "begin" {
			stmt, stmtStart = e.stmt, e.at
			parent = add(span{Stmt: stmt, Name: "stmt", Start: e.at})
			probeOpen, execOpen, optOpen, harvOpen = cached, false, false, false
			continue
		}
		if parent == 0 {
			continue
		}
		if e.mark == "end" {
			out[parent-1].End = e.at
			parent = 0
			continue
		}
		switch e.ev.Kind {
		case trace.CacheHit:
			if probeOpen {
				child("probe", stmtStart, e.at, false)
				probeOpen = false
			}
			execStart, execOpen = e.at, true
		case trace.CacheMiss:
			execStart, execOpen = e.at, true
		case trace.OptimizeStart:
			if probeOpen {
				child("probe", stmtStart, e.at, false)
				probeOpen = false
			}
			optStart, optOpen = e.at, true
		case trace.OptimizeDone:
			if optOpen {
				child("optimize", optStart, e.at, false)
				optOpen = false
			}
			execStart, execOpen = e.at, true
		case trace.CheckpointViolated:
			if execOpen {
				child("exec", execStart, e.at, true)
				execOpen = false
			}
			harvStart, harvOpen = e.at, true
		case trace.Reoptimize:
			if harvOpen {
				child("harvest", harvStart, e.at, false)
				harvOpen = false
			}
		case trace.QueryDone, trace.QueryError:
			if execOpen {
				child("exec", execStart, e.at, false)
				execOpen = false
			}
		default:
			// Other events fall inside the open span.
		}
	}
	self := selfTime(out)
	for i := range out {
		out[i].Self = self[out[i].ID]
	}
	return out
}

// selfTime returns each span's duration minus the part of it its children
// cover, keyed by span ID. Children of one parent never overlap here, so the
// covered part is the sum of their durations.
func selfTime(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans writes the spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
