// Command perfbench is the repository's benchmark. It loads seeded data,
// runs one workload in closed loop for whole passes over its statements,
// ending at the pass boundary nearest --seconds, checks every result against
// a reference computed through a different execution path, and prints its
// metrics, the last line of its output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 they are the per-layer ones: the run first measures an
// untraced phase, then a traced phase whose events are stamped with wall
// time and turned into spans (written under --out), and it cross-checks its
// counts against a metrics.Registry fed the same events. Any failed
// statement or failed cross-check makes the command exit 1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tpch-sweep --seed 1 --seconds 20 --trace 0
//
// predictions.json lists, per workload, why it was chosen, the layers it
// exercises and bypasses, and which end-to-end metric each per-layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// minSamples is the fewest statements an untraced run times, so that its
// p90 latency has at least ten samples beyond it.
const minSamples = 100

// setupRuns is the fewest set-ups a run times; setup_s is their median.
const setupRuns = 3

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	setups   int
	out      string
	sz       sizes
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "tpch-sweep, dmv-reopt or serve-zipf")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the data generators and the request stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase (whole passes, at least one)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory for the run record and spans")
	flag.Parse()
	o.traced = traceFlag == 1
	o.setups = setupRuns
	o.sz = defaultSizes()
	if o.workload == "" || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range r.lines {
		fmt.Println(line)
	}
	if err := writeRecord(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(r.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.summary.Correct {
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run.
type report struct {
	summary summary
	meta    map[string]any
	lines   []string // human-readable output
	errs    []string
	spans   []span
}

// setupTimes splits one set-up; the part outside load and reference is
// server start and warm-up.
type setupTimes struct {
	total, load, reference time.Duration
}

func run(o options) (*report, error) {
	// An untraced run loads several data instances; a traced run measures
	// the first. Set-up is timed at least o.setups times: once per instance,
	// then repeats of the first instance's set-up that are thrown away.
	k := 1
	if !o.traced {
		k = max(o.sz.instances[o.workload], 1)
	}
	var ws []workload
	defer func() {
		for _, w := range ws {
			if err := w.close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: close:", err)
			}
		}
	}()
	var totals, loads, refs []float64
	for i := 0; i < max(k, o.setups); i++ {
		w, err := newWorkload(o.workload)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		st, err := timedSetup(w, instanceSeed(o.seed, i%k), o.sz)
		if i < k {
			ws = append(ws, w)
		} else if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, st.total.Seconds())
		loads = append(loads, st.load.Seconds())
		refs = append(refs, st.reference.Seconds())
	}

	r := &report{meta: runMeta(o)}
	r.meta["instances"] = k
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	newPhase := func(traced bool) *phase {
		p := &phase{ws: ws, library: true}
		if sz, ok := ws[0].(*serveZipf); ok {
			p.srv, p.library = sz.srv, false
		}
		if traced {
			p.clk = newClock()
		}
		return p
	}
	d := time.Duration(o.seconds * float64(time.Second))

	var timed *phase
	if !o.traced {
		timed = newPhase(false)
		timed.run(d, minSamples)
		lat := timed.sortedLatencies()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := float64(timed.attempted)
		put("setup_s", median(totals), "s")
		put("stmt_per_s", timed.stmtPerS(), "1/s")
		put("stmt_gmean_ms", geomean(lat), "ms")
		put("cpu_ms_per_stmt", median(append([]float64(nil), timed.passCPU...)), "ms")
		put("sim_work", timed.first.simWork, "work")
		put("allocs_per_stmt", ratio(timed.rt.mallocs, n), "count")
		put("alloc_bytes_per_stmt", ratio(timed.rt.bytes, n), "B")
		put("heap_live_mb", float64(ms.HeapAlloc)/1e6, "MB")
	} else {
		plain := newPhase(false)
		plain.run(d/2, 0)
		timed = newPhase(true)
		timed.run(d/2, 0)
		if err := timed.crossCheck(); err != nil {
			r.errs = append(r.errs, err.Error())
		}
		if timed.library {
			r.spans = buildSpans(timed.clk.events(), o.workload == "tpch-sweep")
		}
		layerMetrics(timed, r.spans, put)
		put("setup.load_s", median(loads), "s")
		put("setup.reference_s", median(refs), "s")
		put("trace.overhead_frac", 1-ratio(timed.stmtPerS(), plain.stmtPerS()), "frac")
	}

	for _, f := range timed.failures {
		r.errs = append(r.errs, "wrong result or error: "+f)
	}
	r.summary = summary{
		Correct:   timed.failed == 0 && len(r.errs) == 0,
		Attempted: timed.attempted,
		Failed:    timed.failed,
		Metrics:   m,
	}
	lat := timed.sortedLatencies()
	r.lines = append(r.lines,
		fmt.Sprintf("# %s seed=%d commit=%s go=%s GOMAXPROCS=%d nproc=%d", o.workload, o.seed,
			r.meta["commit"], runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()),
		fmt.Sprintf("# timed phase: %d passes, %d statements (%d latency samples, %d beyond p90, %d beyond p99), %.2f s, failed_frac %.4f",
			timed.passes, timed.attempted, len(lat), len(lat)-int(0.9*float64(len(lat))),
			len(lat)-int(0.99*float64(len(lat))), timed.wall.Seconds(), ratio(float64(timed.failed), float64(timed.attempted))),
		fmt.Sprintf("# latency: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, mean of slowest tenth %.4f ms, over %d samples",
			percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99), tailMean(lat), len(lat)),
		fmt.Sprintf("# first pass: statements %d, sim_work %.0f, reopts %d, rows_out %d, cache hits %d misses %d",
			timed.first.stmts, timed.first.simWork, timed.first.reopts, timed.first.rowsOut, timed.first.hits, timed.first.misses))
	for _, name := range sortedKeys(m) {
		r.lines = append(r.lines, fmt.Sprintf("%-30s %16.6g %s", name, m[name].Value, m[name].Unit))
	}
	r.meta["metrics"] = m
	r.meta["first_pass"] = firstPassRecord(timed)
	return r, nil
}

// timedSetup runs one set-up and splits its time.
func timedSetup(w workload, seed uint64, sz sizes) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	if err := w.setup(seed, sz); err != nil {
		return st, err
	}
	st.total = time.Since(t0)
	st.load, st.reference = w.split()
	return st, nil
}

// runMeta records where and how the run was made.
func runMeta(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.traced,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// firstPassRecord lists the counts that repeat exactly for a seed.
func firstPassRecord(p *phase) map[string]any {
	f := p.first
	rec := map[string]any{
		"statements": f.stmts,
		"sim_work":   f.simWork,
		"rows_out":   f.rowsOut,
		"reopts":     f.reopts,
		"hits":       f.hits,
		"misses":     f.misses,
	}
	if p.clk != nil {
		rec["optimizer_calls"] = f.ev.optCalls
		rec["optimizer_candidates"] = f.ev.candidates
		rec["guard_rejects"] = f.ev.guardRejects
	}
	return rec
}

// writeRecord writes the run record, and the spans of a traced run, under
// o.out.
func writeRecord(o options, r *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.traced {
		mode = "layers"
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, mode))
	b, err := json.MarshalIndent(r.meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(r.spans) > 0 {
		return writeSpans(base+".spans.jsonl", r.spans)
	}
	return nil
}
