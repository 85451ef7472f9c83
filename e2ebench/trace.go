package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fielddb"
	"fielddb/internal/field"
	"fielddb/internal/obs"
)

// The traced phase: the same request streams, driven against a second
// server over the same surface whose handler is wrapped by
// spanRecorder.middleware and whose Querier is a tracedQuerier, with the
// engine's TraceCollector installed. Its slices alternate with the
// untraced ones, so host drift does not bias trace.overhead_frac. The
// benchmark's own code records the serve and fielddb spans around the
// calls into each layer; the engine traces supply the core spans. Spans
// stay in memory and are written to a JSON-lines file when the phase ends.

// traceRing bounds the engine trace collector; a phase of a few thousand
// requests fits with room to spare.
const traceRing = 1 << 17

type ctxKey struct{}

// rawSpan is one recorded interval of a layer.
type rawSpan struct {
	name       string
	req        uint64
	lo, hi     float64 // the request's interval, or point coordinates
	start, end time.Time
}

type spanRecorder struct {
	mu    sync.Mutex
	spans []rawSpan
}

func (r *spanRecorder) add(s rawSpan) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func reqID(ctx context.Context) uint64 {
	id, _ := ctx.Value(ctxKey{}).(uint64)
	return id
}

// middleware records one serve.<endpoint> span per request, from handler
// entry (before admission) to handler return, and puts the client's
// request ID in the request context.
func (r *spanRecorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseUint(req.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			// Not a workload request (the readiness probe).
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), ctxKey{}, id)))
		name := "serve." + req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
		r.add(rawSpan{name: name, req: id, start: start, end: time.Now()})
	})
}

// tracedQuerier records one fielddb.<op> span around each facade call the
// workloads make.
type tracedQuerier struct {
	fielddb.Querier
	rec *spanRecorder
}

func (q tracedQuerier) ValueQueryContext(ctx context.Context, lo, hi float64) (*fielddb.Result, error) {
	start := time.Now()
	res, err := q.Querier.ValueQueryContext(ctx, lo, hi)
	q.rec.add(rawSpan{name: "fielddb.range", req: reqID(ctx), lo: lo, hi: hi, start: start, end: time.Now()})
	return res, err
}

func (q tracedQuerier) ApproxAggregateContext(ctx context.Context, lo, hi, maxErr float64) (*fielddb.AggregateResult, error) {
	start := time.Now()
	res, err := q.Querier.ApproxAggregateContext(ctx, lo, hi, maxErr)
	q.rec.add(rawSpan{name: "fielddb.aggregate", req: reqID(ctx), lo: lo, hi: hi, start: start, end: time.Now()})
	return res, err
}

func (q tracedQuerier) PointQueryContext(ctx context.Context, p fielddb.Point) (float64, error) {
	start := time.Now()
	v, err := q.Querier.PointQueryContext(ctx, p)
	q.rec.add(rawSpan{name: "fielddb.point", req: reqID(ctx), lo: p.X, hi: p.Y, start: start, end: time.Now()})
	return v, err
}

// tracedPhase is the outcome of the traced drive.
type tracedPhase struct {
	ph     *phase
	spans  []rawSpan
	traces []*fielddb.QueryTrace
}

// tracing is the traced half of a traced run: a second server over the
// same surface, its span recorder and the engine's trace collector.
type tracing struct {
	rec       *spanRecorder
	srv       *server
	collector *fielddb.TraceCollector
}

func startTracing(fx *fixture) (*tracing, error) {
	rec := &spanRecorder{}
	srv, err := startServer(fx, tracedQuerier{fx.querier(), rec}, rec.middleware)
	if err != nil {
		return nil, err
	}
	return &tracing{rec: rec, srv: srv, collector: fielddb.NewTraceCollector(traceRing)}, nil
}

// drive runs one traced slice.
func (t *tracing) drive(fx *fixture, cl *clients, d time.Duration) *phase {
	fx.setTracer(t.collector)
	defer fx.setTracer(nil)
	return cl.run(t.srv.base, d, true)
}

// finish stops the traced server and returns the traced phase ph with its
// spans.
func (t *tracing) finish(ph *phase) (*tracedPhase, error) {
	t.srv.stop()
	if t.collector.Total() > traceRing {
		return nil, fmt.Errorf("trace ring overflowed: %d traces for %d slots", t.collector.Total(), traceRing)
	}
	t.rec.mu.Lock()
	spans := t.rec.spans
	t.rec.mu.Unlock()
	return &tracedPhase{ph: ph, spans: spans, traces: t.collector.Traces()}, nil
}

// span is one line of the span file. Times are microseconds from the
// phase's first span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Name   string  `json:"name"`
	Req    uint64  `json:"req"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// linked is the traced phase's spans with parents resolved: serve spans
// are roots, a fielddb span's parent is its request's serve span, an
// engine trace's parent is the fielddb span (or, for updates, the serve
// span) that encloses it, and its phases are its children.
type linked struct {
	spans []span
	// Per-request pairs for the layer metrics.
	serveOf   map[uint64]int // request ID → serve span index
	facadeOf  map[uint64]int // request ID → fielddb span index
	engineFor map[int]int    // fielddb span index → engine trace span index
}

func (tp *tracedPhase) link() *linked {
	l := &linked{serveOf: map[uint64]int{}, facadeOf: map[uint64]int{}, engineFor: map[int]int{}}
	if len(tp.spans) == 0 {
		return l
	}
	t0 := tp.spans[0].start
	for _, s := range tp.spans {
		if s.start.Before(t0) {
			t0 = s.start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Microsecond) }
	addSpan := func(parent int, name string, req uint64, start, end time.Time) int {
		l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, Req: req, Start: us(start), End: us(end)})
		return len(l.spans) - 1
	}
	// Serve spans first, then the facade spans under them.
	type key struct {
		name   string
		lo, hi float64
	}
	facadeByKey := map[key][]int{}
	var updates []int
	for _, s := range tp.spans {
		if strings.HasPrefix(s.name, "serve.") {
			i := addSpan(-1, s.name, s.req, s.start, s.end)
			l.serveOf[s.req] = i
			if s.name == "serve.update" {
				updates = append(updates, i)
			}
		}
	}
	for _, s := range tp.spans {
		if strings.HasPrefix(s.name, "fielddb.") {
			parent, ok := l.serveOf[s.req]
			if !ok {
				parent = -1
			}
			i := addSpan(parent, s.name, s.req, s.start, s.end)
			l.facadeOf[s.req] = i
			k := key{s.name, s.lo, s.hi}
			facadeByKey[k] = append(facadeByKey[k], i)
		}
	}
	facadeName := map[string]string{obs.KindValue: "fielddb.range", obs.KindAggregate: "fielddb.aggregate", obs.KindPoint: "fielddb.point"}
	for _, t := range tp.traces {
		begin, end := t.Begin, t.Begin.Add(t.Duration)
		parent := -1
		if name, ok := facadeName[t.Kind]; ok {
			// The facade span with the same interval that encloses the trace.
			for _, i := range facadeByKey[key{name, t.Lo, t.Hi}] {
				f := l.spans[i]
				if us(begin) >= f.Start && us(end) <= f.End {
					parent = i
					break
				}
			}
		} else if t.Kind == obs.KindUpdate {
			for _, i := range updates {
				s := l.spans[i]
				if us(begin) >= s.Start && us(end) <= s.End {
					parent = i
					break
				}
			}
		}
		req := uint64(0)
		if parent >= 0 {
			req = l.spans[parent].Req
		}
		ti := addSpan(parent, "core."+t.Kind, req, begin, end)
		if parent >= 0 && strings.HasPrefix(l.spans[parent].Name, "fielddb.") {
			if _, dup := l.engineFor[parent]; !dup {
				l.engineFor[parent] = ti
			}
		}
		for _, sp := range t.Spans {
			addSpan(ti, "core."+sp.Phase.String(), req, begin.Add(sp.Start), begin.Add(sp.Start+sp.Duration))
		}
	}
	return l
}

// writeSpans writes the linked spans as JSON lines.
func writeSpans(path string, l *linked) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes derives each layer's mean self time per request from the
// linked spans: a span's duration minus the part its children cover. Only
// spans under a request count; batch-level engine traces, which serve
// several requests at once, stay out (the core.batch_fetch_ms metric
// reports them).
func selfTimes(l *linked) map[string]float64 {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	sum := map[string]float64{}
	for i, s := range l.spans {
		root := i
		for l.spans[root].Parent >= 0 {
			root = l.spans[root].Parent
		}
		if !strings.HasPrefix(l.spans[root].Name, "serve.") {
			continue
		}
		covered := coveredUs(l.spans, children[i])
		layer := s.Name[:strings.IndexByte(s.Name, '.')]
		sum[layer] += (s.End - s.Start - covered) / 1000
	}
	requests := float64(len(l.serveOf))
	for k := range sum {
		sum[k] /= requests
	}
	return sum
}

// coveredUs is the length of the union of the given spans' intervals.
func coveredUs(spans []span, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]float64, len(idx))
	for i, j := range idx {
		iv[i] = [2]float64{spans[j].Start, spans[j].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cur := 0.0, iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// layers fills the per-layer metrics: span-derived times from the traced
// phase, counter deltas and client-side figures from the untraced one.
func layers(cfg config, fx *fixture, m *metricSet, ph *phase, d counters, v *verdict, tp *tracedPhase) error {
	l := tp.link()
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, l); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	m.spanFile = path
	for layer, self := range selfTimes(l) {
		m.set(layer+".self_ms", self)
	}

	// serve: handler entry to facade call, facade return to handler end.
	var pre, post []float64
	facadeMs := map[string][]float64{}
	var wait []float64
	for req, fi := range l.facadeOf {
		f := l.spans[fi]
		facadeMs[f.Name] = append(facadeMs[f.Name], (f.End-f.Start)/1000)
		if si, ok := l.serveOf[req]; ok {
			s := l.spans[si]
			pre = append(pre, (f.Start-s.Start)/1000)
			post = append(post, (s.End-f.End)/1000)
		}
		if ei, ok := l.engineFor[fi]; ok && f.Name == "fielddb.range" {
			e := l.spans[ei]
			wait = append(wait, ((f.End-f.Start)-(e.End-e.Start))/1000)
		}
	}
	m.set("serve.pre_engine_ms", mean(pre))
	m.set("serve.post_engine_ms", mean(post))
	m.set("fielddb.range_ms", mean(facadeMs["fielddb.range"]))
	m.set("fielddb.aggregate_ms", mean(facadeMs["fielddb.aggregate"]))
	m.set("fielddb.point_ms", mean(facadeMs["fielddb.point"]))
	m.set("fielddb.window_wait_ms", mean(wait))
	m.set("serve.resp_kb_json", ratio(v.resp.jsonBytes/1000, float64(v.resp.jsonExports)))
	m.set("serve.resp_kb_bin", ratio(v.resp.binBytes/1000, float64(v.resp.binExports)))
	shed := 0
	for _, p := range []*phase{ph, tp.ph} {
		for i := range p.samples {
			if p.samples[i].status == http.StatusTooManyRequests {
				shed++
			}
		}
	}
	m.set("serve.shed_429", float64(shed))
	// The coverage gap the point generators step around, from the probe
	// verification ran after the measured phases.
	m.set("serve.point_gap_frac", ratio(float64(v.gapRefused), float64(v.gapProbes)))

	// core: mean span time per phase, from the engine traces.
	phaseMs := map[obs.Phase][]float64{}
	var filterReads []float64
	for _, t := range tp.traces {
		for _, sp := range t.Spans {
			phaseMs[sp.Phase] = append(phaseMs[sp.Phase], ms(sp.Duration))
			if sp.Phase == obs.PhaseFilter && t.Kind == obs.KindValue {
				filterReads = append(filterReads, float64(sp.Pages.Reads))
			}
		}
	}
	for name, ph := range map[string]obs.Phase{
		"core.plan_ms": obs.PhasePlan, "core.sidecar_filter_ms": obs.PhaseSidecar,
		"core.refine_ms": obs.PhaseRefine, "core.batch_fetch_ms": obs.PhaseBatchFetch,
		"core.summary_eval_ms": obs.PhaseSummary, "core.decode_ms": obs.PhaseDecode,
		"core.patch_ms": obs.PhasePatch, "core.index_maintain_ms": obs.PhaseMaintain,
		"rstar.search_ms": obs.PhaseFilter,
	} {
		if len(phaseMs[ph]) == 0 {
			m.absent(name, "the engine recorded no "+ph.String()+" span on this workload")
			continue
		}
		m.set(name, mean(phaseMs[ph]))
	}
	m.set("rstar.index_pages_per_query", mean(filterReads))

	// core counters: response counts and registry deltas of the untraced phase.
	q := float64(v.resp.queries)
	m.set("core.cells_fetched_per_query", ratio(v.resp.fetched, q))
	m.set("core.cells_matched_per_query", ratio(v.resp.matched, q))
	m.set("core.refine_useful_ratio", ratio(v.resp.matched, v.resp.fetched))
	m.set("core.batch_size_mean", ratio(d[cBatchQueries], d[cBatches]))
	valueQueries := 0
	for i := range ph.samples {
		if isRange(&ph.samples[i]) {
			valueQueries++
		}
	}
	m.set("core.coalesced_pages_saved_per_query", ratio(d[cCoalescedSaved], float64(valueQueries)))
	m.set("core.regroup_frac", ratio(d[cRegroups], d[cUpdateBatches]))
	m.set("core.update_pages_written_per_batch", ratio(d[cPagesWritten], d[cUpdateBatches]))
	m.set("core.aggregate_fallback_frac", ratio(d[cAggFallbacks], d[cAggQueries]))

	// storage: the responses' simulated I/O, and the live pools.
	m.set("storage.pages_per_query", ratio(v.resp.reads, q))
	m.set("storage.sim_disk_ms_per_query", ratio(v.resp.simNs/1e6, q))
	if fx.db != nil {
		m.set("storage.pool_hit_ratio", ratio(d[cPoolHits], d[cPoolHits]+d[cPoolMisses]))
	} else {
		m.absent("storage.pool_hit_ratio", "StoredIndex exposes no pool counters")
	}

	// process: whole-process allocation and GC over the untraced phase.
	reqs := float64(len(ph.samples))
	m.set("process.allocs_per_req", ratio(d[cMallocs], reqs))
	m.set("process.alloc_kb_per_req", ratio(d[cAllocBytes]/1000, reqs))
	m.set("process.gc_cpu_frac", ratio(d[cGCCPU], d[cTotalCPU]))

	// band: field.Band timed over each query's matched cells.
	if err := measureBand(cfg, m, tp.ph, v); err != nil {
		return err
	}

	// trace: traced against untraced /range latency.
	traced := quantile(latencies(tp.ph.samples, isRange), 0.5)
	m.set("trace.overhead_frac", traced/m.vals["range_p50_ms"]-1)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bandQueries bounds how many of the traced phase's value queries the band
// measurement replays.
const bandQueries = 64

// measureBand replays the refinement geometry of the traced phase's first
// value queries: the cells whose interval meets the query, materialized
// first, then field.Band over each, timed and counted alone.
func measureBand(cfg config, m *metricSet, ph *phase, v *verdict) error {
	f, err := bandField(cfg, v)
	if err != nil {
		return err
	}
	n := f.NumCells()
	ivs := make([]fielddb.Interval, n)
	var c field.Cell
	for id := 0; id < n; id++ {
		f.Cell(field.CellID(id), &c)
		ivs[id] = c.Interval()
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var total time.Duration
	var polys, mallocs float64
	queries := 0
	for i := range ph.samples {
		s := &ph.samples[i]
		if !isRange(s) || !s.ok() {
			continue
		}
		if queries == bandQueries {
			break
		}
		queries++
		q := fielddb.Interval{Lo: s.req.lo, Hi: s.req.hi}
		var cells []field.Cell
		for id, iv := range ivs {
			if iv.Intersects(q) {
				var cc field.Cell
				f.Cell(field.CellID(id), &cc)
				cells = append(cells, cc)
			}
		}
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		start := time.Now()
		for j := range cells {
			polys += float64(len(field.Band(&cells[j], q.Lo, q.Hi)))
		}
		total += time.Since(start)
		metrics.Read(allocs)
		mallocs += float64(allocs[0].Value.Uint64() - a0)
	}
	m.set("band.geometry_ms_per_query", ratio(ms(total), float64(queries)))
	m.set("band.polygons_per_query", ratio(polys, float64(queries)))
	m.set("band.allocs_per_query", ratio(mallocs, float64(queries)))
	return nil
}

// bandField is the field the band replay reads: a fresh build for the
// read-only workloads, the acknowledged end state for live-update.
func bandField(cfg config, v *verdict) (fielddb.Field, error) {
	if cfg.workload == wlLiveUpdate {
		return freshTIN(v.finalValues)
	}
	return buildField(cfg.workload)
}
