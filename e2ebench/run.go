package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"fielddb"
	"fielddb/internal/tin"
)

// counters are the process and engine totals a phase's per-layer metrics
// are deltas of.
type counters [numCounters]float64

const (
	cMallocs = iota
	cAllocBytes
	cGCCPU
	cTotalCPU
	cBatches
	cBatchQueries
	cCoalescedSaved
	cUpdateBatches
	cRegroups
	cPagesWritten
	cAggQueries
	cAggFallbacks
	cPoolHits
	cPoolMisses
	numCounters
)

var procMetricNames = [...]string{
	cMallocs:    "/gc/heap/allocs:objects",
	cAllocBytes: "/gc/heap/allocs:bytes",
	cGCCPU:      "/cpu/classes/gc/total:cpu-seconds",
	cTotalCPU:   "/cpu/classes/total:cpu-seconds",
}

func readCounters(fx *fixture) counters {
	var c counters
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	for i := range ms {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			c[i] = float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			c[i] = ms[i].Value.Float64()
		}
	}
	e := fx.querier().QueryMetrics()
	c[cBatches], c[cBatchQueries], c[cCoalescedSaved] = float64(e.Batches), float64(e.BatchQueries), float64(e.CoalescedPagesSaved)
	c[cUpdateBatches], c[cRegroups], c[cPagesWritten] = float64(e.UpdateBatches), float64(e.RegroupEvents), float64(e.UpdatePagesWritten)
	c[cAggQueries], c[cAggFallbacks] = float64(e.AggregateQueries), float64(e.AggregateFallbacks)
	if fx.db != nil {
		m := fx.db.Metrics()
		for _, sh := range append(m.ValuePool, m.SpatialPool...) {
			c[cPoolHits] += float64(sh.Hits)
			c[cPoolMisses] += float64(sh.Misses)
		}
	}
	return c
}

// measureSlices is how many slices the measured phase is driven in. Between
// slices the FWB1 frames received are decoded and released, which keeps
// decoding out of the timed path and bounds the frames held to one slice
// (≈60 MB on archive-export). A traced run alternates untraced and traced
// slices of half the length, so it too measures for the run's seconds.
const measureSlices = 4

// measure drives one recorded phase against base and adds the counter
// deltas it caused to sum.
func measure(fx *fixture, cl *clients, base string, d time.Duration, sum *counters) *phase {
	c0 := readCounters(fx)
	ph := cl.run(base, d, true)
	c1 := readCounters(fx)
	for i := range sum {
		sum[i] += c1[i] - c0[i]
	}
	return ph
}

// newClients derives the workload's request streams from the seed.
func newClients(cfg config, fx *fixture) (*clients, []fielddb.Interval, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	vr := fx.field.ValueRange()
	cl := &clients{}
	var pool []fielddb.Interval
	switch cfg.workload {
	case wlReadMix:
		pool = intervalPool(vr)
		cl.readers = []generator{newMixGen(rng.Int63(), pool, fx.field, nil), newMixGen(rng.Int63(), pool, fx.field, nil)}
	case wlArchiveExport:
		for i := 0; i < 2; i++ {
			cl.readers = append(cl.readers, &exportGen{rng: rand.New(rand.NewSource(rng.Int63())), vr: vr, bin: i == 1})
		}
	case wlLiveUpdate:
		pool = intervalPool(vr)
		// The TIN leaves small gaps inside its Bounds() (see NOTES.md), so
		// the reader's points are drawn where it has a triangle. Coverage
		// depends on geometry only; a private copy is read because the
		// served TIN's values change under the writer.
		cov, err := buildField(cfg.workload)
		if err != nil {
			return nil, nil, err
		}
		covers := func(p fielddb.Point) bool { _, ok := cov.Locate(p); return ok }
		cl.readers = []generator{newMixGen(rng.Int63(), pool, fx.field, covers)}
		t := fx.field.(*tin.TIN)
		values := make([]float64, t.NumSamples())
		for i := range values {
			values[i] = t.SampleValue(i)
		}
		cl.writer = &updateGen{rng: rand.New(rand.NewSource(rng.Int63())), values: values, step: updateStepMax * vr.Length()}
	}
	return cl, pool, nil
}

// lead reports whether s is the workload's lead operation: the whole
// read mix on read-mix, every export on archive-export, the update batch
// on live-update.
func lead(workload string, s *sample) bool {
	switch workload {
	case wlLiveUpdate:
		return s.req.kind == opUpdate
	default:
		return s.req.kind != opUpdate
	}
}

func isRange(s *sample) bool { return s.req.kind == opRange || s.req.kind == opExport }

// run executes one benchmark run: set up, warm up, measure, optionally
// trace, verify. It returns the result line and the readable report.
func run(cfg config) (*result, string, error) {
	var setupTimes []float64
	var fx *fixture
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t := time.Now()
		f, err := setup(cfg.workload, cfg.workdir, i)
		if err != nil {
			return nil, "", err
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		if i < cfg.setups-1 {
			f.close()
		} else {
			fx = f
		}
	}
	defer fx.close()

	cl, pool, err := newClients(cfg, fx)
	if err != nil {
		return nil, "", err
	}
	cl.run(fx.srv.base, cfg.warmup, false)
	var tr *tracing
	if cfg.trace {
		var err error
		if tr, err = startTracing(fx); err != nil {
			return nil, "", err
		}
	}
	runtime.GC()
	var delta counters
	ph, traced := &phase{}, &phase{}
	var dg digester
	slice := cfg.seconds / measureSlices
	if tr != nil {
		slice /= 2 // half the run untraced, half traced
	}
	for i := 0; i < measureSlices; i++ {
		p := measure(fx, cl, fx.srv.base, slice, &delta)
		dg.digest(p)
		ph.merge(p)
		if tr != nil {
			p = tr.drive(fx, cl, slice)
			dg.digest(p)
			traced.merge(p)
		}
	}
	var tp *tracedPhase
	if tr != nil {
		var err error
		if tp, err = tr.finish(traced); err != nil {
			return nil, "", err
		}
	}

	v, err := verify(cfg, fx, pool, cl, ph, tp)
	if err != nil {
		return nil, "", err
	}

	slices := sliceRates(ph)
	m := newMetricSet()
	m.set("setup_s", median(setupTimes))
	e2e(cfg.workload, m, ph)
	// Failed, refused or wrong, over every operation verified.
	m.set("failed_frac", ratio(float64(v.failed), float64(v.attempted)))
	if cfg.trace {
		if err := layers(cfg, fx, m, ph, delta, v, tp); err != nil {
			return nil, "", err
		}
	}
	// Live heap with the server still up and the client's retained bodies
	// and the verification references released.
	ph, tp, v.refs = nil, nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("heap_live_mb", float64(mem.HeapAlloc)/(1<<20))

	res := &result{Correct: v.correct(), Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		for _, spec := range perLayer {
			res.Metrics[spec.Name] = m.value(spec.Name, spec.Unit)
		}
	} else {
		for _, spec := range endToEnd {
			res.Metrics[spec.Name] = m.value(spec.Name, spec.Unit)
		}
	}
	return res, report(cfg, setupTimes, m, v, slices), nil
}

// e2e fills the end-to-end metrics (and the per-class latencies the report
// adds) from the untraced phase.
func e2e(workload string, m *metricSet, ph *phase) {
	readers := 0
	for i := range ph.samples {
		if s := &ph.samples[i]; s.req.kind != opUpdate && s.ok() {
			readers++
		}
	}
	m.set("throughput_rps", float64(readers)/ph.elapsed.Seconds())
	rng := latencies(ph.samples, isRange)
	m.set("range_p50_ms", quantile(rng, 0.5))
	m.set("range_p90_ms", quantile(rng, 0.9))
	ld := latencies(ph.samples, func(s *sample) bool { return lead(workload, s) })
	m.set("lead_p50_ms", quantile(ld, 0.5))
	m.set("lead_p90_ms", quantile(ld, 0.9))

	kind := func(k opKind) func(*sample) bool { return func(s *sample) bool { return s.req.kind == k } }
	export := func(bin bool) func(*sample) bool {
		return func(s *sample) bool { return s.req.kind == opExport && s.req.bin == bin }
	}
	m.set("aggregate_p50_ms", quantile(latencies(ph.samples, kind(opAggregate)), 0.5))
	m.set("point_p50_ms", quantile(latencies(ph.samples, kind(opPoint)), 0.5))
	for _, f := range []struct {
		name string
		bin  bool
	}{{"json", false}, {"bin", true}} {
		l := latencies(ph.samples, export(f.bin))
		m.set("export_"+f.name+"_p50_ms", quantile(l, 0.5))
		m.set("export_"+f.name+"_p90_ms", quantile(l, 0.9))
	}
	up := latencies(ph.samples, kind(opUpdate))
	m.set("update_p50_ms", quantile(up, 0.5))
	m.set("update_p90_ms", quantile(up, 0.9))
	var late []time.Duration
	for i := range ph.samples {
		if ph.samples[i].req.kind == opUpdate {
			late = append(late, ph.samples[i].late)
		}
	}
	m.set("client.update_late_p90_ms", quantile(late, 0.9))
}

// metricSet holds computed values by name; NaN means absent, with reasons
// recorded for the report.
type metricSet struct {
	vals     map[string]float64
	why      map[string]string
	spanFile string // traced runs: where the spans were written
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, why: map[string]string{}}
}

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

// absent records why name has no value on this workload.
func (m *metricSet) absent(name, why string) {
	m.vals[name] = math.NaN()
	m.why[name] = why
}

func (m *metricSet) value(name, unit string) metricValue {
	v, ok := m.vals[name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		v = absentValue
	}
	return metricValue{Value: v, Unit: unit}
}

// sliceRates is the untraced phase's reader throughput by consecutive
// two-second slice: how steady the host was during the run.
func sliceRates(ph *phase) []float64 {
	const slice = 2 * time.Second
	n := int(ph.elapsed / slice)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for i := range ph.samples {
		s := &ph.samples[i]
		if k := int(s.start / slice); s.req.kind != opUpdate && s.ok() && k < n {
			counts[k] += 1 / slice.Seconds()
		}
	}
	return counts
}

func report(cfg config, setupTimes []float64, m *metricSet, v *verdict, slices []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "e2ebench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(&b, "  set-ups: %.3f s\n", setupTimes)
	fmt.Fprintf(&b, "  reader throughput by 2 s slice: %.0f 1/s\n", slices)
	line := func(name, unit string) {
		val, ok := m.vals[name]
		switch {
		case !ok:
			return
		case math.IsNaN(val):
			why := m.why[name]
			if why == "" {
				why = "no such requests on this workload"
			}
			fmt.Fprintf(&b, "  %-40s %14s %-6s (%s)\n", name, "absent", unit, why)
		default:
			fmt.Fprintf(&b, "  %-40s %14.4f %-6s\n", name, val, unit)
		}
	}
	b.WriteString("end to end (untraced phase)\n")
	for _, s := range endToEnd {
		line(s.Name, s.Unit)
	}
	for _, s := range perClass {
		line(s.Name, s.Unit)
	}
	if cfg.trace {
		fmt.Fprintf(&b, "per layer (counters from the untraced phase, times from the traced one; spans in %s)\n", m.spanFile)
		for _, s := range layerMetrics {
			line(s.Name, s.Unit)
		}
	}
	b.WriteString(v.String())
	return b.String()
}
