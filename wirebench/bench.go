package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// bench runs one workload in one mode.
type bench struct {
	w        workload
	seed     uint64
	seconds  int
	work     string
	deadline time.Time
	stitcher string
}

// count is how many messages each member sources so that one
// repetition offers load for seconds/reps.
func (b *bench) count(reps int) int {
	n := int(b.w.rateHz * float64(b.seconds) / float64(reps))
	if n < 1 {
		n = 1
	}
	return n
}

// rep runs repetition i with a hard cutoff of four times its offered
// duration plus 20 s, never past the run's budget.
func (b *bench) rep(i, count int, traced bool, sampleMod int) (*repOut, error) {
	offered := time.Duration(float64(count) / b.w.rateHz * float64(time.Second))
	cutoff := time.Now().Add(4*offered + 20*time.Second)
	if cutoff.After(b.deadline) {
		cutoff = b.deadline
	}
	kind := "clean"
	if traced {
		kind = "traced"
	}
	return runRep(repSpec{
		w:         b.w,
		seed:      b.seed,
		rep:       i,
		count:     count,
		dir:       filepath.Join(b.work, fmt.Sprintf("%s-%d", kind, i)),
		traced:    traced,
		sampleMod: sampleMod,
		cutoff:    cutoff,
	})
}

// tally adds one finished repetition to the result and applies the
// correctness gate: a repetition that fails counts every expected
// delivery as failed.
func (b *bench) tally(res *result, label string, o *repOut, final []map[string]float64) {
	all := o.expected * members
	res.Attempted += all
	bad := gate(o.reports, o.runErrs, b.w.lossFree(), final)
	for _, line := range bad {
		fmt.Printf("GATE FAILED (%s): %s\n", label, line)
	}
	if len(bad) > 0 {
		res.Correct = false
		res.Failed += all
	}
}

// cutoffResult records a repetition stopped by the hard cutoff: its
// shortfall counts as failed deliveries and the run is not correct.
func cutoffResult(res result, o *repOut, ce *cutoffError) result {
	fmt.Printf("CUTOFF: %v\n", ce)
	res.Correct = false
	res.Attempted += o.expected * members
	res.Failed += ce.shortfall()
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	return res
}

// clean runs cleanReps untraced repetitions and reports the median of
// each end-to-end metric over them.
func (b *bench) clean() (result, error) {
	res := result{Correct: true}
	count := b.count(cleanReps)
	var outs []*repOut
	for i := 0; i < cleanReps; i++ {
		o, err := b.rep(i, count, false, 0)
		var ce *cutoffError
		if errors.As(err, &ce) {
			res.Metrics = endToEnd(outs)
			return cutoffResult(res, o, ce), nil
		}
		if err != nil {
			return res, err
		}
		b.tally(&res, fmt.Sprintf("clean rep %d", i), o, nil)
		v := repEndToEnd(o)
		fmt.Printf("clean rep %d: setup %.4f s, rate %.1f msg/s, lat mean %.3f ms, p99 %.3f ms, cpu %.2f us/delivery, wall %.2f s\n",
			i, v.setupS, v.rate, v.latMean, v.latP99, v.cpuUS, o.wall.Seconds())
		outs = append(outs, o)
	}
	res.Metrics = endToEnd(outs)
	return res, nil
}

// e2e is one repetition's end-to-end figures.
type e2e struct {
	setupS, rate, latMean, latP99, cpuUS float64
}

func repEndToEnd(o *repOut) e2e {
	var v e2e
	v.setupS = o.setup.Seconds()
	var n, delivered float64
	for _, r := range o.reports {
		v.rate += r.ThroughputPS / members
		delivered += float64(r.Delivered)
		for _, g := range r.Groups {
			w := float64(g.CrossLatN)
			n += w
			v.latMean += g.CrossLatMeanMS * w
			v.latP99 += g.CrossLatP99MS * w
		}
	}
	if n > 0 {
		v.latMean /= n
		v.latP99 /= n
	}
	if delivered > 0 {
		v.cpuUS = float64(o.cpu.Microseconds()) / delivered
	}
	return v
}

// endToEnd reports the median over repetitions of every end-to-end
// metric, and the process's peak RSS.
func endToEnd(outs []*repOut) map[string]metric {
	m := map[string]metric{}
	if len(outs) == 0 {
		return m
	}
	col := func(get func(e2e) float64) float64 {
		vs := make([]float64, len(outs))
		for i, o := range outs {
			vs[i] = get(repEndToEnd(o))
		}
		return median(vs)
	}
	m["setup_s"] = metric{col(func(v e2e) float64 { return v.setupS }), "s"}
	m["deliver_rate"] = metric{col(func(v e2e) float64 { return v.rate }), "msg/s"}
	m["lat_mean_ms"] = metric{col(func(v e2e) float64 { return v.latMean }), "ms"}
	m["lat_p99_ms"] = metric{col(func(v e2e) float64 { return v.latP99 }), "ms"}
	m["cpu_us_per_delivery"] = metric{col(func(v e2e) float64 { return v.cpuUS }), "us"}
	m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	return m
}

func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks (vs is not modified).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// sampleMod picks trace_sample_mod so that about 1000 messages of the
// repetition are traced: at about ten spans per traced message and
// member, their spans fit each member's span ring (16384) with room
// for retransmit and annotation spans.
func sampleMod(count int) int {
	m := (count*members + 999) / 1000
	if m < 1 {
		m = 1
	}
	return m
}

// instrumented runs one clean repetition, then one instrumented
// repetition of the same length, then the layer-call timings, and
// reports the per-layer metrics.
func (b *bench) instrumented() (result, error) {
	res := result{Correct: true}
	count := b.count(cleanReps)
	clean, err := b.rep(0, count, false, 0)
	var ce *cutoffError
	if errors.As(err, &ce) {
		return cutoffResult(res, clean, ce), nil
	}
	if err != nil {
		return res, err
	}
	b.tally(&res, "clean rep", clean, nil)

	mod := sampleMod(count)
	traced, err := b.rep(1, count, true, mod)
	if errors.As(err, &ce) {
		return cutoffResult(res, traced, ce), nil
	}
	if err != nil {
		return res, err
	}
	b.tally(&res, "instrumented rep", traced, traced.final)
	if !res.Correct {
		res.Metrics = map[string]metric{}
		return res, nil
	}

	m := map[string]metric{}
	cleanLayers(m, clean)
	scrapedLayers(m, traced)

	gapNS := int64(1e6/b.w.rateHz) * 1000 // the CBR period, whole µs
	spans, err := readSpans(traced.spanFiles, gapNS)
	if err != nil {
		return res, err
	}
	spanLayers(m, spans, traced)

	report, err := stitch(b.stitcher, traced.spanFiles)
	if err != nil {
		return res, err
	}
	fmt.Printf("\nstage table (ringnet-trace, instrumented repetition, trace_sample_mod %d):\n%s", mod, report)
	// The figures come from the benchmark's own stitching, at full
	// precision; the stitcher's table must agree on every path count. A
	// disagreement fails the instrumented repetition.
	rows := parseStageTable(report)
	traceOK := true
	for _, s := range stageMetrics {
		hops := spans.stages[s.row]
		if r := rows[s.row]; len(hops) == 0 || r.n != len(hops) {
			fmt.Printf("TRACE FAILED: stage %q: %d stitched hops, ringnet-trace reports %d\n", s.row, len(hops), r.n)
			traceOK = false
			continue
		}
		m[s.name+".p50_ms"] = metric{quantile(hops, 0.5), "ms"}
		m[s.name+".p99_ms"] = metric{quantile(hops, 0.99), "ms"}
	}
	if !traceOK {
		res.Correct = false
		res.Failed += traced.expected * members
	}

	samples, err := readProfile(traced.profile)
	if err != nil {
		return res, err
	}
	shares := cpuShares(samples)
	fmt.Println("\nCPU by layer (instrumented repetition, flat samples to the innermost layer):")
	for _, bk := range cpuBuckets {
		fmt.Printf("  %-10s %6.2f%%\n", bk, 100*shares[bk])
		m["cpu.share."+bk] = metric{shares[bk], "ratio"}
	}

	tracedCPU, cleanCPU := repEndToEnd(traced).cpuUS, repEndToEnd(clean).cpuUS
	m["trace.overhead"] = metric{ratio(tracedCPU, cleanCPU), "ratio"}
	fmt.Printf("\ntrace.overhead: %.4f (instrumented cpu_us_per_delivery %.2f / clean %.2f)\n",
		ratio(tracedCPU, cleanCPU), tracedCPU, cleanCPU)

	calls, err := timeLayers(shapeOf(b.w, clean, filepath.Join(b.work, "layers")))
	if err != nil {
		return res, err
	}
	fmt.Println("\nlayer calls (testing.Benchmark):")
	for _, c := range calls {
		fmt.Printf("  %-20s %12.1f ns/op %8.2f allocs/op %10.1f B/op  (%d iterations)\n",
			c.name, c.nsPerOp, c.allocsPerOp, c.bytesPerOp, c.iterations)
		m[c.name+".ns_per_op"] = metric{c.nsPerOp, "ns"}
		m[c.name+".allocs_per_op"] = metric{c.allocsPerOp, "count"}
	}
	res.Metrics = m
	return res, nil
}
