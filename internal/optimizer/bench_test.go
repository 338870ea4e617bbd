package optimizer_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/stats"
)

var benchPlan *optimizer.Plan

// BenchmarkOptimizeDMV measures optimization alone, with no execution: one
// op optimizes each of the 39 DMV queries twice, once from statistics and
// once re-optimizing with the feedback a full POP run of that query
// gathered — the planning half of the POP loop. As in the POP runner, the
// re-optimization carries the first call's memo, reusing the subsets the
// feedback leaves untouched; reused/reopt-cand reports the share of the
// re-optimizations' candidates carried over rather than costed.
func BenchmarkOptimizeDMV(b *testing.B) {
	cat := catalog.New()
	if err := dmv.Load(cat, dmv.Config{Scale: 0.2, Seed: 17}); err != nil {
		b.Fatal(err)
	}
	infos, err := dmv.Queries(cat)
	if err != nil {
		b.Fatal(err)
	}
	fbs := make([]*stats.Feedback, len(infos))
	for i, qi := range infos {
		fbs[i] = stats.NewFeedback()
		opts := pop.DefaultOptions()
		opts.SharedFeedback = fbs[i]
		if _, err := pop.NewRunner(cat, opts).Run(qi.Query, nil); err != nil {
			b.Fatalf("%s: %v", qi.Name, err)
		}
	}
	var reused, reoptCands int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, qi := range infos {
			memo := &optimizer.Memo{}
			for _, fb := range []*stats.Feedback{nil, fbs[i]} {
				o := optimizer.New(cat)
				o.Feedback = fb
				o.Memo = memo
				p, err := o.Optimize(qi.Query)
				if err != nil {
					b.Fatalf("%s: %v", qi.Name, err)
				}
				benchPlan = p
				if fb != nil {
					reused += o.ReusedCandidates
					reoptCands += o.EnumeratedCandidates
				}
			}
		}
	}
	b.ReportMetric(float64(reused)/float64(reoptCands), "reused/reopt-cand")
}
