package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/pop"
	"repro/internal/server"
	"repro/internal/trace"
)

// passCounts are the counts of the first timed pass. A pass runs a fixed,
// seeded statement list, so for one seed they repeat exactly.
type passCounts struct {
	stmts        int
	simWork      float64
	rowsOut      int64
	reopts       int
	hits         int
	misses       int
	optWork      int
	optWorkSaved int
	attempts     int
	mvs          int
	// From the trace (traced phases only).
	ev eventCounts
	// serve-zipf: scheduler counters over the pass.
	dopClamps, inlineRuns int64
}

// eventCounts tallies trace events by kind.
type eventCounts struct {
	optCalls      int
	candidates    int
	checksPassed  int
	checksFailed  int
	guardRejects  int
	invalidations int
	workerStarts  int
}

func countEvents(evs []stamped) eventCounts {
	var c eventCounts
	for _, e := range evs {
		switch e.ev.Kind {
		case trace.OptimizeDone:
			c.optCalls++
			if e.ev.Opt != nil {
				c.candidates += e.ev.Opt.Candidates
			}
		case trace.CheckpointPassed:
			c.checksPassed++
		case trace.CheckpointViolated:
			c.checksFailed++
		case trace.CacheGuardReject:
			c.guardRejects++
		case trace.CacheInvalidate:
			c.invalidations++
		case trace.WorkerStart:
			c.workerStarts++
		default:
			// Not counted.
		}
	}
	return c
}

// phase runs and accumulates one timed phase: whole passes until the time
// is up, at least one. A pass runs every data instance's statements once.
type phase struct {
	ws      []workload
	clk     *clock            // nil when tracing is off
	reg     *metrics.Registry // fed the same events, traced library phases
	srv     *server.Server    // serve-zipf only; its registry serves instead
	library bool

	stmtID    int64
	passes    int
	passRates []float64 // statements per second of each pass
	passCPU   []float64 // process CPU milliseconds per statement of each pass
	wall      time.Duration
	attempted int
	failed    int
	failures  []string
	lat       []time.Duration
	first     passCounts
	cur       passCounts

	// All statements of the phase.
	work, wastedWork float64
	hits, misses     int
	reopts           int
	placeTime        time.Duration
	places           int
	wire, inside     time.Duration
	waits            []time.Duration

	rt runtimeDelta
	// Registry snapshots around the phase, serve-zipf only.
	reg0, reg1 metrics.Snapshot
}

// begin and end mark a library statement's boundaries on the clock.
func (p *phase) begin() {
	if p.clk != nil {
		p.stmtID++
		p.clk.begin(p.stmtID)
	}
}

func (p *phase) end() {
	if p.clk != nil {
		p.clk.end(p.stmtID)
	}
}

// done records one statement's outcome.
func (p *phase) done(s *stmt, o outcome) {
	p.attempted++
	p.lat = append(p.lat, o.latency)
	if o.failed {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, s.label+": "+o.why)
		}
		return
	}
	c := &p.cur
	c.stmts++
	c.simWork += o.work
	c.rowsOut += int64(o.rows)
	c.reopts += o.reopts
	p.reopts += o.reopts
	p.work += o.work
	hit := o.cacheHit
	if o.info != nil {
		hit = o.info.Hit
		c.optWork += o.info.OptWork
		c.optWorkSaved += o.info.OptWorkSaved
	}
	if o.info != nil || !p.library {
		if hit {
			c.hits++
			p.hits++
		} else {
			c.misses++
			p.misses++
		}
	}
	if r := o.res; r != nil {
		c.attempts += len(r.Attempts)
		for _, a := range r.Attempts {
			c.mvs += a.MVsCreated
		}
		p.wastedWork += r.Attempts[len(r.Attempts)-1].WorkBefore
		if p.clk != nil {
			// Time checkpoint placement on each attempt's optimized plan,
			// outside the statement.
			for _, a := range r.Attempts {
				t0 := time.Now()
				pop.Place(a.Optimized, s.q, pop.DefaultPolicy())
				p.placeTime += time.Since(t0)
				p.places++
			}
		}
	}
	if !p.library {
		c.attempts += 1 + o.reopts
		p.wire += o.latency - time.Duration(o.elapsedNS)
		p.inside += time.Duration(o.elapsedNS - o.waitNS)
		p.waits = append(p.waits, time.Duration(o.waitNS))
	}
}

// run executes whole passes, at least one, and at least minSamples
// statements, ending at the pass boundary nearest to d.
func (p *phase) run(d time.Duration, minSamples int) {
	var rec trace.Recorder
	switch {
	case p.clk != nil && p.srv != nil:
		rec = p.clk
		p.reg0 = p.srv.Metrics()
	case p.clk != nil:
		p.reg = metrics.New()
		rec = trace.Multi(p.clk, p.reg)
	}
	for _, w := range p.ws {
		w.startPhase(rec)
	}
	// Set-up garbage is collected here, not billed to the first statements.
	runtime.GC()
	rt0 := readRuntime()
	start := time.Now()
	var last time.Duration // length of the last pass
	for p.passes == 0 || time.Since(start)+last/2 < d || p.attempted < minSamples {
		var s0 server.SchedStats
		if p.srv != nil {
			s0 = p.srv.Scheduler().Stats()
		}
		n0, t0, cpu0 := p.attempted, time.Now(), cpuTime()
		for _, w := range p.ws {
			w.pass(p)
		}
		n := float64(p.attempted - n0)
		last = time.Since(t0)
		p.passRates = append(p.passRates, n/last.Seconds())
		p.passCPU = append(p.passCPU, ms(cpuTime()-cpu0)/n)
		if p.passes == 0 {
			p.first = p.cur
			if p.clk != nil {
				p.first.ev = countEvents(p.clk.events())
			}
			if p.srv != nil {
				s1 := p.srv.Scheduler().Stats()
				p.first.dopClamps = s1.DOPClamps - s0.DOPClamps
				p.first.inlineRuns = s1.InlineRuns - s0.InlineRuns
			}
		}
		p.passes++
	}
	p.wall = time.Since(start)
	p.rt = diffRuntime(rt0, readRuntime())
	for _, w := range p.ws {
		w.startPhase(nil)
	}
	if p.srv != nil && p.clk != nil {
		p.reg1 = p.srv.Metrics()
	}
}

func (p *phase) sortedLatencies() []time.Duration {
	s := append([]time.Duration(nil), p.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// stmtPerS is the median over passes of statements per second: a pass
// slowed by a burst of load from outside the benchmark does not move it.
func (p *phase) stmtPerS() float64 { return median(append([]float64(nil), p.passRates...)) }

// crossCheck compares the benchmark's own counts over the traced phase with
// the metrics registry fed the same trace stream. Hits, misses and reopts
// come from the values the API returned; the rest from the event stream.
func (p *phase) crossCheck() error {
	var snap metrics.Snapshot
	if p.srv != nil {
		snap = diffSnapshot(p.reg0, p.reg1)
	} else {
		snap = p.reg.Snapshot()
	}
	ev := countEvents(p.clk.events())
	var mism []string
	check := func(name string, ours int, theirs int64) {
		if int64(ours) != theirs {
			mism = append(mism, fmt.Sprintf("%s: benchmark %d, registry %d", name, ours, theirs))
		}
	}
	check("optimizations", ev.optCalls, snap.Optimizations)
	check("reoptimizations", p.reopts, snap.Reoptimizations)
	check("check_violations", ev.checksFailed, snap.CheckViolations)
	check("checks_passed", ev.checksPassed, snap.ChecksPassed)
	check("cache_guard_rejects", ev.guardRejects, snap.CacheGuardRejects)
	check("cache_hits", p.hits, snap.CacheHits)
	check("cache_misses", p.misses, snap.CacheMisses)
	if len(mism) > 0 {
		return fmt.Errorf("trace counts disagree with the metrics registry: %v", mism)
	}
	return nil
}

func diffSnapshot(a, b metrics.Snapshot) metrics.Snapshot {
	return metrics.Snapshot{
		Optimizations:     b.Optimizations - a.Optimizations,
		Reoptimizations:   b.Reoptimizations - a.Reoptimizations,
		CheckViolations:   b.CheckViolations - a.CheckViolations,
		ChecksPassed:      b.ChecksPassed - a.ChecksPassed,
		CacheHits:         b.CacheHits - a.CacheHits,
		CacheMisses:       b.CacheMisses - a.CacheMisses,
		CacheGuardRejects: b.CacheGuardRejects - a.CacheGuardRejects,
	}
}
