package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
	"repro/internal/plancache"
	"repro/internal/pop"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// The serve-zipf statements. Both carry parameter markers, so every binding
// of one text shares a plan-cache entry.
const (
	pointSQL  = `SELECT o_orderkey, SUM(l_extendedprice) AS v FROM orders, lineitem WHERE o_custkey = ? AND l_orderkey = o_orderkey GROUP BY o_orderkey`
	reportSQL = `SELECT c_name, SUM(l_extendedprice) AS revenue FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_quantity <= ? GROUP BY c_name`
)

// sizes holds the data scales, instance counts and stream length. Tests
// shrink them.
type sizes struct {
	// instances is how many data instances an untraced run of each
	// workload loads, each from its own seed derived from the run's seed.
	// Per-seed differences in the data average out over them.
	instances map[string]int
	tpchSF    float64
	dmvScale  float64
	dmvQuery  int // run only the first dmvQuery DMV queries; 0 runs all
	streamLen int // serve-zipf requests per pass
	clients   int // serve-zipf connections
}

func defaultSizes() sizes {
	return sizes{
		instances: map[string]int{"tpch-sweep": 6, "dmv-reopt": 3, "serve-zipf": 3},
		tpchSF:    0.005, dmvScale: 0.5, streamLen: 1500, clients: 2,
	}
}

// stmt is one statement with one binding, and its reference result.
type stmt struct {
	label  string
	q      *logical.Query
	params []types.Datum
	sql    string              // serve-zipf only
	wire   []server.ParamValue // serve-zipf only
	ref    *resultSet
}

// outcome is what one execution reports back to the pass loop.
type outcome struct {
	latency time.Duration
	failed  bool
	why     string // what failed
	work    float64
	rows    int
	reopts  int
	// Library paths only.
	res  *pop.Result
	info *plancache.ExecInfo
	// serve-zipf only: the server's timing fields.
	waitNS, elapsedNS int64
	cacheHit          bool
}

// instanceSeed derives the seed of data instance i of a run.
func instanceSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E3779B97F4A7C15 }

// setupSplit remembers how long a set-up spent loading data and computing
// reference results.
type setupSplit struct{ load, ref time.Duration }

func (s *setupSplit) split() (load, ref time.Duration) { return s.load, s.ref }

// loaded notes the end of the data load, started at t0.
func (s *setupSplit) loaded(t0 time.Time) time.Time {
	s.load = time.Since(t0)
	return time.Now()
}

// referenced notes the end of the reference results, started at t0.
func (s *setupSplit) referenced(t0 time.Time) { s.ref = time.Since(t0) }

// workload is one of the benchmark's input sets.
type workload interface {
	// setup generates and loads the data for the seed, computes the
	// reference results and, for the server, starts serving and warms the
	// plan cache.
	setup(seed uint64, sz sizes) error
	// startPhase prepares a timed phase (a fresh plan cache, say); rec is
	// nil when tracing is off.
	startPhase(rec trace.Recorder)
	// pass runs every statement once, reporting each to ph.
	pass(ph *phase)
	// split reports how long the last set-up spent loading data and
	// computing reference results.
	split() (load, ref time.Duration)
	// close releases what setup acquired.
	close() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tpch-sweep":
		return &tpchSweep{}, nil
	case "dmv-reopt":
		return &dmvReopt{}, nil
	case "serve-zipf":
		return &serveZipf{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpch-sweep, dmv-reopt or serve-zipf)", name)
}

// reference runs a statement through the checking path: the greedy-pop
// strategy on a plain pop.Runner, with no plan cache and no server.
func reference(cat *catalog.Catalog, q *logical.Query, params []types.Datum) (*resultSet, error) {
	opts := pop.DefaultOptions()
	opts.Planner = pop.GreedyPOP
	res, err := pop.NewRunner(cat, opts).Run(q, params)
	if err != nil {
		return nil, err
	}
	return fromRows(res.Rows), nil
}

// setReferences fills every statement's reference result.
func setReferences(cat *catalog.Catalog, stmts []*stmt) error {
	for _, s := range stmts {
		ref, err := reference(cat, s.q, s.params)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", s.label, err)
		}
		s.ref = ref
	}
	return nil
}

// libraryOutcome checks a library result against the statement's reference.
func libraryOutcome(s *stmt, lat time.Duration, res *pop.Result, err error) outcome {
	o := outcome{latency: lat}
	switch {
	case err != nil:
		o.failed, o.why = true, err.Error()
		return o
	case !s.ref.matches(fromRows(res.Rows)):
		o.failed, o.why = true, "rows differ from the reference"
		return o
	}
	o.res, o.work, o.rows, o.reopts = res, res.Work, len(res.Rows), res.Reopts
	return o
}

// qtyBindings is the Q10 quantity sweep 2.5, 5, ..., 50.
func qtyBindings() []float64 {
	var out []float64
	for i := 1; i <= 20; i++ {
		out = append(out, 2.5*float64(i))
	}
	return out
}

// tpchSweep runs the named TPC-H queries and the parameterized Q10 sweep
// through one plan-cache runner, in the library, one caller.
type tpchSweep struct {
	setupSplit
	cat    *catalog.Catalog
	stmts  []*stmt
	runner *plancache.Runner
}

func (w *tpchSweep) setup(seed uint64, sz sizes) error {
	t0 := time.Now()
	w.cat = catalog.New()
	if err := tpch.Load(w.cat, tpch.Config{ScaleFactor: sz.tpchSF, Seed: seed}); err != nil {
		return err
	}
	t0 = w.loaded(t0)
	named, err := tpch.Queries(w.cat)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	w.stmts = w.stmts[:0]
	for _, n := range names {
		w.stmts = append(w.stmts, &stmt{label: n, q: named[n]})
	}
	q10, err := tpch.Q10Param(w.cat)
	if err != nil {
		return err
	}
	for _, qty := range qtyBindings() {
		w.stmts = append(w.stmts, &stmt{
			label:  fmt.Sprintf("Q10p(qty=%g)", qty),
			q:      q10,
			params: []types.Datum{types.NewFloat(qty)},
		})
	}
	if err := setReferences(w.cat, w.stmts); err != nil {
		return err
	}
	w.referenced(t0)
	return nil
}

func (w *tpchSweep) startPhase(rec trace.Recorder) {
	opts := pop.DefaultOptions()
	opts.Trace = rec
	w.runner = plancache.NewRunner(plancache.New(), w.cat, opts)
}

func (w *tpchSweep) pass(ph *phase) {
	for _, s := range w.stmts {
		ph.begin()
		t0 := time.Now()
		res, info, err := w.runner.Run(s.q, s.params)
		lat := time.Since(t0)
		ph.end()
		o := libraryOutcome(s, lat, res, err)
		if !o.failed {
			o.info = &info
		}
		ph.done(s, o)
	}
}

func (w *tpchSweep) close() error { return nil }

// dmvReopt runs the correlated DMV queries, each through a fresh pop.Runner
// with no plan cache: the paper's §6 set-up.
type dmvReopt struct {
	setupSplit
	cat   *catalog.Catalog
	stmts []*stmt
	opts  pop.Options
}

func (w *dmvReopt) setup(seed uint64, sz sizes) error {
	t0 := time.Now()
	w.cat = catalog.New()
	if err := dmv.Load(w.cat, dmv.Config{Scale: sz.dmvScale, Seed: seed}); err != nil {
		return err
	}
	t0 = w.loaded(t0)
	qs, err := dmv.Queries(w.cat)
	if err != nil {
		return err
	}
	if sz.dmvQuery > 0 && sz.dmvQuery < len(qs) {
		qs = qs[:sz.dmvQuery]
	}
	w.stmts = w.stmts[:0]
	for _, qi := range qs {
		w.stmts = append(w.stmts, &stmt{label: qi.Name, q: qi.Query})
	}
	if err := setReferences(w.cat, w.stmts); err != nil {
		return err
	}
	w.referenced(t0)
	return nil
}

func (w *dmvReopt) startPhase(rec trace.Recorder) {
	w.opts = pop.DefaultOptions()
	w.opts.Trace = rec
}

func (w *dmvReopt) pass(ph *phase) {
	for _, s := range w.stmts {
		ph.begin()
		t0 := time.Now()
		res, err := pop.NewRunner(w.cat, w.opts).Run(s.q, s.params)
		lat := time.Since(t0)
		ph.end()
		ph.done(s, libraryOutcome(s, lat, res, err))
	}
}

func (w *dmvReopt) close() error { return nil }

// serveZipf drives an in-process server over loopback TCP from a fixed
// seeded request stream: 95% point statements on zipfian customer keys, 5%
// Q10-join reports over the quantity sweep. Each connection is a closed-loop
// caller taking the stream's next request.
type serveZipf struct {
	setupSplit
	cat     *catalog.Catalog
	srv     *server.Server
	clients []*server.Client
	stream  []*stmt
	rec     trace.Recorder // swapped per phase; read by the server's Options hook
	recMu   sync.RWMutex
}

func (w *serveZipf) setup(seed uint64, sz sizes) error {
	t0 := time.Now()
	w.cat = catalog.New()
	if err := tpch.Load(w.cat, tpch.Config{ScaleFactor: sz.tpchSF, Seed: seed}); err != nil {
		return err
	}
	t0 = w.loaded(t0)
	point, err := sqlparse.Parse(w.cat, pointSQL)
	if err != nil {
		return err
	}
	report, err := sqlparse.Parse(w.cat, reportSQL)
	if err != nil {
		return err
	}

	// The stream: hot customers are a seeded permutation of the keys, so
	// which customers are hot changes with the seed.
	rng := rand.New(rand.NewSource(int64(seed)))
	ncust := tpch.Sizes(sz.tpchSF)["customer"]
	perm := rng.Perm(ncust)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(ncust-1))
	qtys := qtyBindings()
	distinct := map[string]*stmt{}
	var order []*stmt
	w.stream = make([]*stmt, sz.streamLen)
	for i := range w.stream {
		var s *stmt
		if rng.Float64() < 0.95 {
			key := int64(perm[zipf.Uint64()])
			s = &stmt{label: fmt.Sprintf("point(custkey=%d)", key), q: point, sql: pointSQL,
				params: []types.Datum{types.NewInt(key)}, wire: []server.ParamValue{server.Int(key)}}
		} else {
			qty := qtys[rng.Intn(len(qtys))]
			s = &stmt{label: fmt.Sprintf("report(qty=%g)", qty), q: report, sql: reportSQL,
				params: []types.Datum{types.NewFloat(qty)}, wire: []server.ParamValue{server.Float(qty)}}
		}
		if d, ok := distinct[s.label]; ok {
			s = d
		} else {
			distinct[s.label] = s
			order = append(order, s)
		}
		w.stream[i] = s
	}
	if err := setReferences(w.cat, order); err != nil {
		return err
	}
	w.referenced(t0)

	w.srv = server.New(w.cat, server.Config{
		Options: func(o *pop.Options) {
			w.recMu.RLock()
			o.Trace = trace.Multi(o.Trace, w.rec)
			w.recMu.RUnlock()
		},
	})
	if err := w.srv.Start(); err != nil {
		return err
	}
	for i := 0; i < sz.clients; i++ {
		c, err := server.Dial(w.srv.Addr())
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	// Warm-up: every distinct request once, serially, so the timed phase
	// finds the plan cache filled.
	for _, s := range order {
		if o := w.query(w.clients[0], s); o.failed {
			return fmt.Errorf("warm-up %s: %s", s.label, o.why)
		}
	}
	return nil
}

// query sends one request and checks the response against the reference.
func (w *serveZipf) query(c *server.Client, s *stmt) outcome {
	t0 := time.Now()
	resp, err := c.Query(s.sql, s.wire...)
	o := outcome{latency: time.Since(t0)}
	if err == nil && !resp.OK {
		err = fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	var got *resultSet
	if err == nil {
		got, err = fromWire(resp.Rows, s.ref.kinds)
	}
	switch {
	case err != nil:
		o.failed, o.why = true, err.Error()
		return o
	case resp.RowCount != len(resp.Rows) || !s.ref.matches(got):
		o.failed, o.why = true, "rows differ from the reference"
		return o
	}
	o.work, o.rows, o.reopts = resp.Work, resp.RowCount, resp.Reopts
	o.waitNS, o.elapsedNS, o.cacheHit = resp.WaitNS, resp.ElapsedNS, resp.CacheHit
	return o
}

func (w *serveZipf) startPhase(rec trace.Recorder) {
	w.recMu.Lock()
	w.rec = rec
	w.recMu.Unlock()
}

func (w *serveZipf) pass(ph *phase) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(w.stream)) {
					return
				}
				s := w.stream[i]
				o := w.query(c, s)
				mu.Lock()
				ph.done(s, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

func (w *serveZipf) close() error {
	var errs []error
	for _, c := range w.clients {
		errs = append(errs, c.Close())
	}
	w.clients = nil
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, w.srv.Shutdown(ctx))
		cancel()
		w.srv = nil
	}
	return errors.Join(errs...)
}
