package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// measure repeats rep until seconds have passed and at least minReps ran.
func measure(o options, minReps int, rep func(i int) error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < o.seconds; i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// memTotals reads the cumulative allocation and GC counters.
func memTotals() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// samples gathers one run's repetitions. Untraced repetitions give the
// end-to-end metrics; with --trace 1 traced ones alternate with them and
// give the per-layer metrics.
type samples struct {
	first *outcome
	// Per untraced repetition: run time, allocation, and the percentiles
	// of its contacts' and captures' latencies.
	walls, allocs          []float64 // s, MB
	contactP50, contactP95 []float64 // ms
	captureP50             []float64 // µs
	contactSamples         int
	traced                 []tracedRep
}

// minP95 is how many contacts a repetition needs for its p95: ten beyond
// the 95th percentile.
const minP95 = 200

// tracedRep is one traced repetition: its per-layer values and its spans.
type tracedRep struct {
	values map[string]float64
	tr     *tracer
}

// agree checks a repetition's outcome: the first against the recorded
// reference, if any, and every later one against the first.
func (s *samples) agree(o options, ch *checks, rep int, got outcome) {
	if s.first == nil {
		s.first = &got
		checkReference(o, ch, got)
		return
	}
	ch.check(got.equal(*s.first), "%s repetition %d: outcome %v, first repetition %v", o.workload, rep, got, *s.first)
}

// add records an untraced repetition.
func (s *samples) add(wall time.Duration, alloc uint64, contacts, captures []time.Duration) {
	s.walls = append(s.walls, wall.Seconds())
	s.allocs = append(s.allocs, float64(alloc)/(1<<20))
	ms := scaled(seconds(contacts), 1e3)
	s.contactSamples += len(ms)
	s.contactP50 = append(s.contactP50, quantile(ms, 0.5))
	if len(ms) >= minP95 {
		s.contactP95 = append(s.contactP95, quantile(ms, 0.95))
	}
	s.captureP50 = append(s.captureP50, quantile(scaled(seconds(captures), 1e6), 0.5))
}

// report turns the samples into the metrics the run prints.
func (s *samples) report(o options, wireKB float64, info map[string]any) (report, error) {
	info["repetitions"] = len(s.walls) + len(s.traced)
	info["outcome"] = s.first.String()
	if o.trace {
		return s.tracedReport(o, info)
	}
	info["contact_samples"] = s.contactSamples
	values := map[string]float64{
		"run_s":               median(s.walls),
		"alloc_mb":            median(s.allocs),
		"capture_p50_us":      median(s.captureP50),
		"contact_p50_ms":      median(s.contactP50),
		"wire_kb_per_contact": wireKB,
		"delivered_photos":    float64(s.first.Delivered),
		"coverage_point":      s.first.Point,
		"coverage_aspect_deg": s.first.AspectRad * 180 / math.Pi,
	}
	if len(s.contactP95) > 0 {
		values["contact_p95_ms"] = median(s.contactP95)
	}
	return report{values: values, info: info}, nil
}

// tracedReport prints the traced repetition with the median run time, so
// every per-layer value comes from one run and its self times add up to
// its run time. It adds the tracing overhead against the untraced
// repetitions and writes that repetition's spans out.
func (s *samples) tracedReport(o options, info map[string]any) (report, error) {
	reps := s.traced
	sort.Slice(reps, func(i, j int) bool { return reps[i].values["trace.run_s"] < reps[j].values["trace.run_s"] })
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.values["trace.run_s"])
	}
	pick := reps[(len(reps)-1)/2]
	pick.values["trace.overhead_pct"] = 100 * (median(walls)/median(s.walls) - 1)
	path := spansPath(o.work, o.workload, o.seed)
	info["spans"] = path
	return report{values: pick.values, info: info}, pick.tr.writeJSONL(path)
}
