package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"

	"fielddb"
	"fielddb/internal/field"
	"fielddb/internal/serve"
)

// Answer verification runs after the measured phases, never inside them.
// Read-only workloads compare every answer with a reference: a LinearScan
// database over a freshly built copy of the same field. The live workload
// checks its readers' answers for shape (the field moves under them) and,
// at the end, every pool interval on the live database against a scratch
// build of the field the acknowledged updates describe.

// binCrossChecks is how many FWB1 exports are re-fetched as JSON and
// compared whole, geometry included.
const binCrossChecks = 8

// answer is the part of a value-query answer the checks compare.
type answer struct {
	matched int
	area    float64
}

// verdict is the outcome of verification plus the response-side counts
// the per-layer metrics use.
type verdict struct {
	attempted, failed int
	wrong             int // answers that differ from the reference
	gapProbes         int // traced runs: uniform points probed, see probeGap
	gapRefused        int // probe points the field does not cover, refused with HTTP 500
	checked           [numOps]int
	crossChecked      int // FWB1 frames compared whole with their JSON answer
	finalChecked      int
	notes             []string
	refs              map[fielddb.Interval]answer
	resp              respStats
	finalValues       []float64 // live-update: the acknowledged sample values
}

// respStats sums the I/O and work counts that value-query responses carry.
type respStats struct {
	queries                 int
	fetched, matched, reads float64
	simNs                   float64
	jsonBytes, binBytes     float64
	jsonExports, binExports int
}

func (v *verdict) correct() bool { return v.wrong == 0 && v.failed == 0 }

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verification: attempted=%d failed=%d wrong=%d fwb1-vs-json=%d final-state-checks=%d\n",
		v.attempted, v.failed, v.wrong, v.crossChecked, v.finalChecked)
	if v.gapProbes > 0 {
		fmt.Fprintf(&b, "  coverage-gap probe: %d of %d uniform points over Bounds() refused with HTTP 500\n", v.gapRefused, v.gapProbes)
	}
	fmt.Fprintf(&b, "  checked:")
	for k := opKind(0); k < numOps; k++ {
		fmt.Fprintf(&b, " %s=%d", opNames[k], v.checked[k])
	}
	b.WriteString("\n")
	for _, n := range v.notes {
		fmt.Fprintf(&b, "  ! %s\n", n)
	}
	return b.String()
}

// rangeEnvelope is the JSON /range answer (geometry only with geometry=1).
type rangeEnvelope struct {
	Result struct {
		CellsFetched int     `json:"cells_fetched"`
		CellsMatched int     `json:"cells_matched"`
		Regions      int     `json:"regions"`
		Area         float64 `json:"area"`
		IO           struct {
			Reads        int   `json:"reads"`
			SimElapsedNs int64 `json:"sim_elapsed_ns"`
		} `json:"io"`
		Geometry [][][2]float64 `json:"geometry"`
	} `json:"result"`
}

type aggregateEnvelope struct {
	Result struct {
		Count      float64 `json:"count"`
		CountBound float64 `json:"count_bound"`
	} `json:"result"`
}

type pointEnvelope struct {
	Value float64 `json:"value"`
}

type updateEnvelope struct {
	SamplesApplied int `json:"samples_applied"`
}

// verify checks every sample of the measured phases and, on the live
// workload, the final state.
func verify(cfg config, fx *fixture, pool []fielddb.Interval, cl *clients, ph *phase, tp *tracedPhase) (*verdict, error) {
	v := &verdict{}
	// The reference field is built afresh: the served one may be mutated
	// (live-update) and must not be read while the server owns it.
	ref, err := buildField(cfg.workload)
	if err != nil {
		return nil, err
	}
	all := ph.samples
	if tp != nil {
		all = append(append([]sample(nil), ph.samples...), tp.ph.samples...)
	}
	live := cfg.workload == wlLiveUpdate
	var refDB *fielddb.DB
	if !live {
		if refDB, err = fielddb.Open(ref, fielddb.Options{Method: fielddb.LinearScan}); err != nil {
			return nil, fmt.Errorf("opening reference: %w", err)
		}
		defer refDB.Close()
	}
	if !live {
		if v.refs, err = references(refDB, all); err != nil {
			return nil, err
		}
	}
	lookup := func(lo, hi float64) answer { return v.refs[fielddb.Interval{Lo: lo, Hi: hi}] }
	for i := range all {
		s := &all[i]
		v.attempted++
		if !s.ok() {
			v.failed++
			v.note("%s failed: status %d %s %.200q", opNames[s.req.kind], s.status, s.err, s.body)
			continue
		}
		v.checked[s.req.kind]++
		switch s.req.kind {
		case opRange, opExport:
			got, err := v.parseValueAnswer(s)
			if err != nil {
				v.wrong++
				v.failed++
				v.note("%s [%g, %g]: %v", opNames[s.req.kind], s.req.lo, s.req.hi, err)
				continue
			}
			if live {
				continue
			}
			if want := lookup(s.req.lo, s.req.hi); !sameAnswer(got, want) {
				v.mismatch(s, got, want)
				continue
			}
			if s.req.bin && s.body != nil {
				v.crossChecked++
				if err := crossCheckBin(fx.srv.base, s); err != nil {
					v.wrong++
					v.failed++
					v.note("FWB1 vs JSON [%g, %g]: %v", s.req.lo, s.req.hi, err)
				}
			}
		case opAggregate:
			var env aggregateEnvelope
			if err := json.Unmarshal(s.body, &env); err != nil {
				v.wrong++
				v.failed++
				v.note("aggregate: %v", err)
				continue
			}
			if live {
				continue
			}
			want := lookup(s.req.lo, s.req.hi)
			if math.Abs(env.Result.Count-float64(want.matched)) > env.Result.CountBound*(1+1e-12)+1e-9 {
				v.wrong++
				v.failed++
				v.note("aggregate [%g, %g]: count %g ± %g, exact %d", s.req.lo, s.req.hi,
					env.Result.Count, env.Result.CountBound, want.matched)
			}
		case opPoint:
			var env pointEnvelope
			if err := json.Unmarshal(s.body, &env); err != nil {
				v.wrong++
				v.failed++
				v.note("point: %v", err)
				continue
			}
			if live {
				continue
			}
			want, ok := field.ValueAt(ref, fielddb.Point{X: s.req.x, Y: s.req.y})
			if !ok || !sameFloat(env.Value, want) {
				v.wrong++
				v.failed++
				v.note("point (%g, %g): got %g, reference %g (located %v)", s.req.x, s.req.y, env.Value, want, ok)
			}
		case opUpdate:
			var env updateEnvelope
			if err := json.Unmarshal(s.body, &env); err != nil || env.SamplesApplied != updateBatch {
				v.wrong++
				v.failed++
				v.note("update: applied %d of %d (%v)", env.SamplesApplied, updateBatch, err)
			}
		}
	}
	if live {
		v.finalValues = cl.writer.values
		if err := v.checkFinalState(fx, pool, v.finalValues); err != nil {
			return nil, err
		}
	}
	if tp != nil {
		if err := v.probeGap(fx.srv.base, ref, cfg.seed); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// references answers every distinct interval the samples asked for on the
// reference database, on two goroutines (the host's two cores; nothing
// else runs during verification).
func references(db *fielddb.DB, samples []sample) (map[fielddb.Interval]answer, error) {
	refs := map[fielddb.Interval]answer{}
	var todo []fielddb.Interval
	for i := range samples {
		s := &samples[i]
		if s.req.kind == opPoint || s.req.kind == opUpdate {
			continue
		}
		iv := fielddb.Interval{Lo: s.req.lo, Hi: s.req.hi}
		if _, ok := refs[iv]; !ok {
			refs[iv] = answer{}
			todo = append(todo, iv)
		}
	}
	out := make([]answer, len(todo))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += len(errs) {
				r, err := db.ValueQuery(todo[i].Lo, todo[i].Hi)
				if err != nil {
					errs[w] = fmt.Errorf("reference %v: %w", todo[i], err)
					return
				}
				out[i] = answer{r.CellsMatched, r.Area}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, iv := range todo {
		refs[iv] = out[i]
	}
	return refs, nil
}

// parseValueAnswer decodes a /range answer (JSON envelope, the retained
// pre-geometry part of a JSON export, or an FWB1 frame) and adds its counts
// to the response statistics.
func (v *verdict) parseValueAnswer(s *sample) (answer, error) {
	var a answer
	var fetched, reads int
	var simNs int64
	if s.req.bin {
		if s.frame == nil {
			return a, s.frameErr
		}
		r := s.frame
		a = answer{r.CellsMatched, r.Area}
		fetched, reads, simNs = r.CellsFetched, r.IO.Reads, r.IO.SimElapsedNs
		v.resp.binBytes += float64(s.size)
		v.resp.binExports++
	} else {
		body := s.body
		if s.req.kind == opExport {
			// retain cut the envelope before its geometry; close it.
			body = append(body[:len(body):len(body)], "}}"...)
		}
		var env rangeEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return a, err
		}
		r := env.Result
		a = answer{r.CellsMatched, r.Area}
		fetched, reads, simNs = r.CellsFetched, r.IO.Reads, r.IO.SimElapsedNs
		if s.req.kind == opExport {
			v.resp.jsonBytes += float64(s.size)
			v.resp.jsonExports++
		}
	}
	v.resp.queries++
	v.resp.fetched += float64(fetched)
	v.resp.matched += float64(a.matched)
	v.resp.reads += float64(reads)
	v.resp.simNs += float64(simNs)
	return a, nil
}

func (v *verdict) mismatch(s *sample, got, want answer) {
	v.wrong++
	v.failed++
	v.note("%s [%g, %g]: cells_matched %d area %.17g, reference %d %.17g",
		opNames[s.req.kind], s.req.lo, s.req.hi, got.matched, got.area, want.matched, want.area)
}

// gapProbePoints is how many uniform points probeGap draws.
const gapProbePoints = 20000

// probeGap measures the known coverage defect that the workloads' point
// generators step around: it draws uniform points over ref's Bounds() and
// sends /point for each that ref has no cell at. The server answers those
// with HTTP 500, because the engine's "outside the field" error is untyped.
// Any other failure, or an answer at such a point, is wrong.
func (v *verdict) probeGap(base string, ref fielddb.Field, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	b := ref.Bounds()
	for i := 0; i < gapProbePoints; i++ {
		r := request{kind: opPoint,
			x: b.Min.X + rng.Float64()*(b.Max.X-b.Min.X),
			y: b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y)}
		v.gapProbes++
		if _, ok := ref.Locate(fielddb.Point{X: r.x, Y: r.y}); ok {
			continue
		}
		body, status, err := get(base, r.path())
		switch {
		case err != nil:
			return fmt.Errorf("coverage probe: %w", err)
		case status == http.StatusInternalServerError:
			v.gapRefused++
		case status == http.StatusOK:
			v.wrong++
			v.note("point (%g, %g) outside the field answered %.200q", r.x, r.y, body)
		}
	}
	return nil
}

// checkFinalState compares every pool interval on the live database with a
// scratch LinearScan build of the field the acknowledged updates describe.
func (v *verdict) checkFinalState(fx *fixture, pool []fielddb.Interval, values []float64) error {
	scratch, err := freshTIN(values)
	if err != nil {
		return err
	}
	db, err := fielddb.Open(scratch, fielddb.Options{Method: fielddb.LinearScan})
	if err != nil {
		return fmt.Errorf("opening scratch build: %w", err)
	}
	defer db.Close()
	for _, iv := range pool {
		body, status, err := get(fx.srv.base, (&request{kind: opRange, lo: iv.Lo, hi: iv.Hi}).path())
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("final-state query [%g, %g]: status %d: %v", iv.Lo, iv.Hi, status, err)
		}
		var env rangeEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("final-state query: %w", err)
		}
		r, err := db.ValueQuery(iv.Lo, iv.Hi)
		if err != nil {
			return fmt.Errorf("scratch query: %w", err)
		}
		v.finalChecked++
		got, want := answer{env.Result.CellsMatched, env.Result.Area}, answer{r.CellsMatched, r.Area}
		if !sameAnswer(got, want) {
			v.wrong++
			v.note("final state [%g, %g]: live %d %.17g, scratch %d %.17g",
				iv.Lo, iv.Hi, got.matched, got.area, want.matched, want.area)
		}
	}
	return nil
}

// crossCheckBin re-fetches s's interval as JSON and requires the decoded
// FWB1 frame to carry the same answer, geometry included.
func crossCheckBin(base string, s *sample) error {
	body, status, err := get(base, s.req.path())
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("JSON re-fetch: status %d: %v", status, err)
	}
	var env rangeEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	frame, err := serve.DecodeFrame(s.body)
	if err != nil {
		return err
	}
	r := frame.(*serve.WireResultFrame).Result
	j := env.Result
	if r.CellsFetched != j.CellsFetched || r.CellsMatched != j.CellsMatched || r.Regions != j.Regions ||
		r.Area != j.Area || r.IO.Reads != j.IO.Reads || r.IO.SimElapsedNs != j.IO.SimElapsedNs {
		return fmt.Errorf("counts differ: FWB1 %+v, JSON %+v", r, j)
	}
	if len(r.Geometry) != 0 || len(j.Geometry) != 0 {
		if !reflect.DeepEqual(r.Geometry, j.Geometry) {
			return fmt.Errorf("geometry differs (%d vs %d rings)", len(r.Geometry), len(j.Geometry))
		}
	}
	return nil
}

// sameAnswer compares counts exactly and areas to 1e-9 relative: the
// reference sums band areas in LinearScan's cell order, the index in its
// own.
func sameAnswer(a, b answer) bool { return a.matched == b.matched && sameFloat(a.area, b.area) }

func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
