package main

import (
	"sort"
	"time"

	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// parseReps is how often each SQL text is parsed to time sqlparse.Parse.
const parseReps = 2000

// layerMetrics computes the per-layer metrics of a traced phase from its
// events and, for library workloads, its spans. Counts are those of the
// first pass; times cover the whole phase. A layer a workload bypasses
// reports 0.
func layerMetrics(p *phase, spans []span, put func(string, float64, string)) {
	w := p.ws[0]
	f := p.first
	n := float64(p.attempted)
	evs := p.clk.events()
	all := countEvents(evs)

	// Span totals. Library statements run one at a time, so their events
	// build whole spans; in serve-zipf sessions interleave, and only the
	// optimize and harvest intervals can be paired, by statement signature.
	var stmtWall, probe, opt, exec, discarded, harvest time.Duration
	var probes, opts, harvests int
	if p.library {
		for _, s := range spans {
			switch s.Name {
			case "stmt":
				stmtWall += s.dur()
			case "probe":
				probe += s.dur()
				probes++
			case "optimize":
				opt += s.dur()
				opts++
			case "exec":
				exec += s.dur()
				if s.Violated {
					discarded += s.dur()
				}
			case "harvest":
				harvest += s.dur()
				harvests++
			}
		}
	} else {
		opt, opts = pairedTime(evs, trace.OptimizeStart, trace.OptimizeDone)
		harvest, harvests = pairedTime(evs, trace.CheckpointViolated, trace.Reoptimize)
		for _, l := range p.lat {
			stmtWall += l
		}
	}

	var parse float64
	if sz, ok := w.(*serveZipf); ok {
		parse = timeParse(sz)
	}
	put("sqlparse.parse_us", parse, "us")

	var wire, inside, wait, waitP99 float64
	var peak int64
	if p.srv != nil {
		wire = us(p.wire) / n
		inside = us(p.inside) / n
		var sum time.Duration
		for _, x := range p.waits {
			sum += x
		}
		wait = us(sum) / n
		sorted := append([]time.Duration(nil), p.waits...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		waitP99 = percentile(sorted, 0.99) * 1e3
		peak = p.srv.Scheduler().Stats().PeakWorkers
	}
	put("server.wire_us", wire, "us")
	put("server.inside_us", inside, "us")
	put("server.admit_wait_us", wait, "us")
	put("server.admit_wait_p99_us", waitP99, "us")
	put("server.dop_clamps", float64(f.dopClamps), "count")
	put("server.inline_runs", float64(f.inlineRuns), "count")
	put("server.peak_workers", float64(peak), "count")

	optWork, optSaved := f.optWork, f.optWorkSaved
	if !p.library {
		optWork, optSaved = cacheOptWork(evs, f.stmts)
	}
	put("plancache.hit_frac", ratio(float64(p.hits), float64(p.hits+p.misses)), "frac")
	put("plancache.hits", float64(f.hits), "count")
	put("plancache.misses", float64(f.misses), "count")
	put("plancache.guard_rejects", float64(f.ev.guardRejects), "count")
	put("plancache.invalidations", float64(f.ev.invalidations), "count")
	put("plancache.probe_us", us(probe)/float64(max(probes, 1)), "us")
	put("plancache.opt_work", float64(optWork), "count")
	put("plancache.opt_work_saved", float64(optSaved), "count")

	put("optimizer.calls", float64(f.ev.optCalls), "count")
	put("optimizer.candidates", float64(f.ev.candidates), "count")
	put("optimizer.optimize_ms", ms(opt)/float64(max(opts, 1)), "ms")
	put("optimizer.ns_per_candidate", ratio(float64(opt), float64(all.candidates)), "ns")
	put("optimizer.share", ratio(float64(opt), float64(stmtWall)), "frac")

	put("pop.reopts", float64(f.reopts), "count")
	put("pop.attempts_per_stmt", ratio(float64(f.attempts), float64(f.stmts)), "count")
	put("pop.checks_passed", float64(f.ev.checksPassed), "count")
	put("pop.checks_violated", float64(f.ev.checksFailed), "count")
	put("pop.mvs_created", float64(f.mvs), "count")
	put("pop.wasted_work_frac", ratio(p.wastedWork, p.work), "frac")
	put("pop.harvest_us", us(harvest)/float64(max(harvests, 1)), "us")
	put("pop.place_us", us(p.placeTime)/float64(max(p.places, 1)), "us")

	put("executor.exec_ms", ms(exec)/n, "ms")
	put("executor.discarded_exec_ms", ms(discarded)/n, "ms")
	put("executor.ns_per_work", ratio(float64(exec), p.work), "ns")
	put("executor.rows_out", float64(f.rowsOut), "count")
	put("executor.worker_starts", float64(f.ev.workerStarts), "count")

	put("runtime.gc_cpu_frac", p.rt.gcCPUFrac, "frac")
	put("runtime.gc_cycles", 1000*p.rt.gcCycles/n, "1/kstmt")
	put("runtime.gc_pause_p99_us", p.rt.pauseP99us, "us")
}

// pairedTime sums the intervals from each start event to the next end event
// of the same statement signature.
func pairedTime(evs []stamped, start, end trace.Kind) (time.Duration, int) {
	open := map[string][]time.Duration{}
	var total time.Duration
	n := 0
	for _, e := range evs {
		switch e.ev.Kind {
		case start:
			open[e.ev.Query] = append(open[e.ev.Query], e.at)
		case end:
			if st := open[e.ev.Query]; len(st) > 0 {
				total += e.at - st[0]
				open[e.ev.Query] = st[1:]
				n++
			}
		}
	}
	return total, n
}

// cacheOptWork sums the optimization work the cache verdict events report
// over the first stmts statements' verdicts.
func cacheOptWork(evs []stamped, stmts int) (work, saved int) {
	seen := 0
	for _, e := range evs {
		if seen == stmts {
			break
		}
		if (e.ev.Kind == trace.CacheHit || e.ev.Kind == trace.CacheMiss) && e.ev.Cache != nil {
			work += e.ev.Cache.OptWork
			saved += e.ev.Cache.OptWorkSaved
			seen++
		}
	}
	return work, saved
}

// timeParse returns the mean sqlparse.Parse time over the stream's SQL texts.
func timeParse(w *serveZipf) float64 {
	texts := map[string]bool{}
	for _, s := range w.stream {
		texts[s.sql] = true
	}
	var total time.Duration
	calls := 0
	for _, sql := range sortedKeys(texts) {
		t0 := time.Now()
		for i := 0; i < parseReps; i++ {
			if _, err := sqlparse.Parse(w.cat, sql); err != nil {
				return 0
			}
		}
		total += time.Since(t0)
		calls += parseReps
	}
	return us(total) / float64(calls)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
