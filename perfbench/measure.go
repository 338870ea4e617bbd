package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of sorted durations, in ms.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(sorted[i])
}

// geomean returns the geometric mean of durations, in ms.
func geomean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum float64
	for _, d := range ds {
		sum += math.Log(ms(max(d, time.Microsecond)))
	}
	return math.Exp(sum / float64(len(ds)))
}

// tailMean returns the mean of the slowest tenth of sorted durations, in ms.
func tailMean(sorted []time.Duration) float64 {
	k := (len(sorted) + 9) / 10
	if k == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range sorted[len(sorted)-k:] {
		sum += d
	}
	return ms(sum) / float64(k)
}

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a reading of the Go runtime's allocation and GC counters.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
	gcCycles       uint64
	pauses         *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	for _, m := range samples {
		switch m.Name {
		case runtimeMetricNames[0]:
			s.gcCPU = readFloat(m.Value)
		case runtimeMetricNames[1]:
			s.allCPU = readFloat(m.Value)
		case runtimeMetricNames[2]:
			if m.Value.Kind() == metrics.KindUint64 {
				s.gcCycles = m.Value.Uint64()
			}
		case runtimeMetricNames[3]:
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				s.pauses = m.Value.Float64Histogram()
			}
		}
	}
	return s
}

func readFloat(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	mallocs, bytes float64
	gcCPUFrac      float64
	gcCycles       float64
	pauseP99us     float64
}

func diffRuntime(a, b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		mallocs:   float64(b.mallocs - a.mallocs),
		bytes:     float64(b.bytes - a.bytes),
		gcCPUFrac: ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU),
		gcCycles:  float64(b.gcCycles - a.gcCycles),
	}
	if a.pauses != nil && b.pauses != nil && len(a.pauses.Counts) == len(b.pauses.Counts) {
		counts := make([]uint64, len(b.pauses.Counts))
		var total uint64
		for i := range counts {
			counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
			total += counts[i]
		}
		var cum uint64
		for i, c := range counts {
			cum += c
			if total > 0 && float64(cum) >= 0.99*float64(total) {
				// Buckets[i+1] is bucket i's upper edge; report it unless
				// it is unbounded.
				edge := b.pauses.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.pauses.Buckets[i]
				}
				d.pauseP99us = edge * 1e6
				break
			}
		}
	}
	return d
}
