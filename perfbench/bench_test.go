package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/types"
)

// testOptions runs one traced pass of a workload at reduced size.
func testOptions(t *testing.T, workload string, seed uint64) options {
	sz := defaultSizes()
	sz.dmvScale, sz.dmvQuery = 0.2, 12
	sz.streamLen = 400
	return options{workload: workload, seed: seed, seconds: 0.001, traced: true, setups: 1, out: t.TempDir(), sz: sz}
}

// TestDeterministicCounts runs every workload twice with one seed and
// requires the first-pass counts to repeat exactly, then runs a second seed
// and requires it to run clean.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("loads three data sets")
	}
	for _, w := range []string{"tpch-sweep", "dmv-reopt", "serve-zipf"} {
		t.Run(w, func(t *testing.T) {
			var first map[string]any
			for i := 0; i < 2; i++ {
				r, err := run(testOptions(t, w, 7))
				if err != nil {
					t.Fatal(err)
				}
				if !r.summary.Correct {
					t.Fatalf("run %d not correct: %v", i, r.errs)
				}
				counts := r.meta["first_pass"].(map[string]any)
				if i == 0 {
					first = counts
					continue
				}
				if !reflect.DeepEqual(first, counts) {
					t.Errorf("first-pass counts differ across runs of one seed:\n%v\n%v", first, counts)
				}
			}
			for _, k := range []string{"sim_work", "optimizer_calls", "optimizer_candidates", "reopts",
				"hits", "misses", "guard_rejects", "rows_out"} {
				if _, ok := first[k]; !ok {
					t.Errorf("first-pass record lacks %s", k)
				}
			}
			r, err := run(testOptions(t, w, 1009))
			if err != nil {
				t.Fatal(err)
			}
			if !r.summary.Correct || r.summary.Failed != 0 {
				t.Fatalf("second seed not clean: %v", r.errs)
			}
		})
	}
}

func TestResultSetIgnoresOrderAndSummationOrder(t *testing.T) {
	row := func(k int64, v float64) schema.Row { return schema.Row{types.NewInt(k), types.NewFloat(v)} }
	ref := fromRows([]schema.Row{row(1, 0.1+0.2), row(2, 5)})
	got := fromRows([]schema.Row{row(2, 5), row(1, 0.3)})
	if !ref.matches(got) {
		t.Error("same rows in another order, summed in another order, do not match")
	}
	if ref.matches(fromRows([]schema.Row{row(2, 5), row(1, 0.31)})) {
		t.Error("a different value matches")
	}
	if ref.matches(fromRows([]schema.Row{row(1, 0.3)})) {
		t.Error("a missing row matches")
	}
	wire, err := fromWire([]string{"[2, 5]", "[1, 0.30000000000000004]"}, ref.kinds)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.matches(wire) || wire.fp != ref.fp {
		t.Error("rows rendered by the server do not match the library rows")
	}
	if _, err := fromWire([]string{"[1]"}, ref.kinds); err == nil {
		t.Error("a row with a missing field parsed")
	}
}

func TestBuildSpans(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	ev := func(ms int, k trace.Kind) stamped { return stamped{at: at(ms), stmt: 1, ev: trace.Event{Kind: k}} }
	evs := []stamped{
		{at: at(0), stmt: 1, mark: "begin"},
		ev(1, trace.CacheGuardReject),
		ev(2, trace.OptimizeStart),
		ev(5, trace.OptimizeDone),
		ev(6, trace.CacheMiss),
		ev(9, trace.CheckpointViolated),
		ev(10, trace.Reoptimize),
		ev(11, trace.OptimizeStart),
		ev(13, trace.OptimizeDone),
		ev(20, trace.QueryDone),
		{at: at(21), stmt: 1, mark: "end"},
	}
	spans := buildSpans(evs, true)
	var got []string
	for _, s := range spans {
		got = append(got, s.Name)
	}
	want := []string{"stmt", "probe", "optimize", "exec", "harvest", "optimize", "exec"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	if !spans[3].Violated || spans[6].Violated {
		t.Error("violated flags wrong")
	}
	// Children cover 2+3+3+1+2+7 = 18 of the statement's 21 ms.
	if self := selfTime(spans)[spans[0].ID]; self != at(3) {
		t.Errorf("statement self time %v, want 3ms", self)
	}
}
