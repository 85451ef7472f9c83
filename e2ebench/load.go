package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"fielddb"
	"fielddb/internal/serve"
)

type opKind uint8

const (
	opRange opKind = iota
	opAggregate
	opPoint
	opExport
	opUpdate
	numOps
)

var opNames = [numOps]string{"range", "aggregate", "point", "export", "update"}

// request is one generated request. The server sees only its URL and body.
type request struct {
	kind   opKind
	lo, hi float64
	x, y   float64 // point
	bin    bool    // export in FWB1
	body   []byte  // update batch
}

// Read-mix request shape: of every 8 requests 6 are /range, 1 /aggregate
// and 1 /point; ranges and aggregates draw zipf(1.3) from a pool of 32
// intervals, 8 at each selectivity.
var (
	mixBlock         = [8]opKind{opRange, opRange, opRange, opRange, opRange, opRange, opAggregate, opPoint}
	poolSelectivites = []float64{0.01, 0.02, 0.05, 0.10}
)

const (
	poolSize      = 32
	zipfS         = 1.3
	exportSel     = 0.01
	updateBatch   = 16
	updateEvery   = 200 * time.Millisecond // 5 batches/s, open loop
	updateStepMax = 0.01                   // of the initial value range
)

// poolSeed fixes the read-mix pool. The pool is part of the workload, like
// the field: with a pool drawn per run, the one or two hottest intervals
// alone moved a run's mean cost by ±50% from seed to seed. --seed varies
// the request streams drawn from it.
const poolSeed = 4217

// intervalPool draws the read-mix pool over vr: 8 uniform intervals per
// selectivity, shuffled so zipf rank and selectivity are unrelated.
func intervalPool(vr fielddb.Interval) []fielddb.Interval {
	rng := rand.New(rand.NewSource(poolSeed))
	var pool []fielddb.Interval
	for _, sel := range poolSelectivites {
		for i := 0; i < poolSize/len(poolSelectivites); i++ {
			pool = append(pool, uniformInterval(vr, sel, rng))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func uniformInterval(vr fielddb.Interval, sel float64, rng *rand.Rand) fielddb.Interval {
	width := sel * vr.Length()
	lo := vr.Lo + rng.Float64()*(vr.Length()-width)
	return fielddb.Interval{Lo: lo, Hi: lo + width}
}

// generator yields one reader connection's request stream, lazily and
// deterministically from its seed.
type generator interface {
	next() request
}

type mixGen struct {
	rng    *rand.Rand
	deck   []int // pool indices still to draw, see zipfDeck
	pool   []fielddb.Interval
	bounds fielddb.Interval // x extent
	ybound fielddb.Interval // y extent
	block  [8]opKind
	pos    int
	// covers, when non-nil, rejects point draws the field has no cell at.
	covers func(fielddb.Point) bool
}

// newMixGen draws points uniformly over the part of f's Bounds() that
// covers accepts (all of it when covers is nil).
func newMixGen(seed int64, pool []fielddb.Interval, f fielddb.Field, covers func(fielddb.Point) bool) *mixGen {
	rng := rand.New(rand.NewSource(seed))
	b := f.Bounds()
	return &mixGen{
		rng:    rng,
		pool:   pool,
		bounds: fielddb.Interval{Lo: b.Min.X, Hi: b.Max.X},
		ybound: fielddb.Interval{Lo: b.Min.Y, Hi: b.Max.Y},
		pos:    len(mixBlock),
		covers: covers,
	}
}

func (g *mixGen) next() request {
	if g.pos == len(g.block) {
		g.block = mixBlock
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	kind := g.block[g.pos]
	g.pos++
	if kind == opPoint {
		for {
			p := fielddb.Point{X: g.bounds.Lo + g.rng.Float64()*g.bounds.Length(),
				Y: g.ybound.Lo + g.rng.Float64()*g.ybound.Length()}
			if g.covers == nil || g.covers(p) {
				return request{kind: opPoint, x: p.X, y: p.Y}
			}
		}
	}
	if len(g.deck) == 0 {
		g.deck = zipfDeck(len(g.pool))
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	i := g.deck[0]
	g.deck = g.deck[1:]
	return request{kind: kind, lo: g.pool[i].Lo, hi: g.pool[i].Hi}
}

// deckSize is how many pool draws one zipf deck holds.
const deckSize = 256

// zipfDeck returns deckSize pool indices in which index k appears in
// proportion to (k+1)^-zipfS, rounded by largest remainder. Dealing shuffled
// decks keeps the zipf shape exact in every run: with independent draws the
// share of the one or two hottest intervals, and with it a run's cost,
// varied from seed to seed by more than the bounds allow.
func zipfDeck(n int) []int {
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		total += w[k]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	dealt := 0
	for k := range w {
		exact := w[k] / total * deckSize
		counts[k] = int(exact)
		dealt += counts[k]
		rem[k] = k
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := w[rem[a]]/total*deckSize - float64(counts[rem[a]])
		fb := w[rem[b]]/total*deckSize - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; dealt < deckSize; i++ {
		counts[rem[i]]++
		dealt++
	}
	deck := make([]int, 0, deckSize)
	for k, c := range counts {
		for ; c > 0; c-- {
			deck = append(deck, k)
		}
	}
	return deck
}

// exportGen yields fresh uniform 1% intervals with geometry, alternating
// JSON and FWB1. Positions are stratified: each run of strata draws one
// uniform position in each 1/strata of the range, in shuffled order, so
// every run covers the value range evenly (the field's cost per interval
// varies several-fold along it).
type exportGen struct {
	rng    *rand.Rand
	vr     fielddb.Interval
	bin    bool
	strata []int
}

const strata = 64

func (g *exportGen) next() request {
	if len(g.strata) == 0 {
		g.strata = g.rng.Perm(strata)
	}
	j := g.strata[0]
	g.strata = g.strata[1:]
	width := exportSel * g.vr.Length()
	lo := g.vr.Lo + (float64(j)+g.rng.Float64())/strata*(g.vr.Length()-width)
	r := request{kind: opExport, lo: lo, hi: lo + width, bin: g.bin}
	g.bin = !g.bin
	return r
}

// updateGen builds 16-sample update batches, each sample moving by up to
// ±1% of the initial value range from its current value. values mirrors
// the server's samples: a batch is applied to it only once acknowledged.
type updateGen struct {
	rng    *rand.Rand
	values []float64
	step   float64
}

type sampleUpdate struct {
	Sample int     `json:"sample"`
	Value  float64 `json:"value"`
}

func (g *updateGen) next() ([]sampleUpdate, request) {
	ups := make([]sampleUpdate, 0, updateBatch)
	seen := make(map[int]bool, updateBatch)
	for len(ups) < updateBatch {
		s := g.rng.Intn(len(g.values))
		if seen[s] {
			continue
		}
		seen[s] = true
		ups = append(ups, sampleUpdate{s, g.values[s] + (2*g.rng.Float64()-1)*g.step})
	}
	body, _ := json.Marshal(map[string]any{"updates": ups}) // plain structs cannot fail
	return ups, request{kind: opUpdate, body: body}
}

func (g *updateGen) apply(ups []sampleUpdate) {
	for _, u := range ups {
		g.values[u.Sample] = u.Value
	}
}

// path renders r's URL path and query.
func (r *request) path() string {
	base := "/v1/fields/" + fieldName + "/"
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch r.kind {
	case opRange:
		return base + "range?lo=" + f(r.lo) + "&hi=" + f(r.hi)
	case opAggregate:
		return base + "aggregate?lo=" + f(r.lo) + "&hi=" + f(r.hi)
	case opPoint:
		return base + "point?x=" + f(r.x) + "&y=" + f(r.y)
	case opExport:
		return base + "range?geometry=1&lo=" + f(r.lo) + "&hi=" + f(r.hi)
	default:
		return base + "update"
	}
}

// sample is one completed request as the client saw it.
type sample struct {
	req    request
	id     uint64        // request ID sent in X-Request-Id
	start  time.Duration // since the phase began
	lat    time.Duration // send (open loop: due time) to last body byte
	late   time.Duration // open loop: how late the send was
	status int
	size   int
	body   []byte // retained part of the body, see retain
	err    string
	// frame is a decoded FWB1 export without its geometry, and frameErr
	// why it failed to decode (digester).
	frame    *serve.WireResult
	frameErr error
}

func (s *sample) ok() bool { return s.err == "" && s.status == http.StatusOK }

// retain keeps what verification needs: small bodies whole, the JSON
// envelope of an export up to its geometry, FWB1 frames whole until the
// digester decodes them.
func retain(r *request, body []byte) []byte {
	if r.kind == opExport && !r.bin {
		if i := bytes.Index(body, []byte(`,"geometry":`)); i >= 0 {
			body = body[:i]
		}
	}
	return append([]byte(nil), body...)
}

// digester decodes FWB1 exports between measured slices, keeping the
// answer and dropping the frame, except the first binCrossChecks frames,
// which verification re-fetches as JSON and compares whole.
type digester struct{ kept int }

func (d *digester) digest(p *phase) {
	for i := range p.samples {
		s := &p.samples[i]
		if !s.req.bin || !s.ok() {
			continue
		}
		frame, err := serve.DecodeFrame(s.body)
		switch rf, ok := frame.(*serve.WireResultFrame); {
		case err != nil:
			s.frameErr = err
		case !ok:
			s.frameErr = fmt.Errorf("frame %T, want a result frame", frame)
		case len(rf.Result.Geometry) != rf.Result.Regions:
			s.frameErr = fmt.Errorf("%d rings for %d regions", len(rf.Result.Geometry), rf.Result.Regions)
		default:
			rf.Result.Geometry = nil
			s.frame = &rf.Result
		}
		if d.kept < binCrossChecks && s.frame != nil {
			d.kept++
			continue
		}
		s.body = nil
	}
}

// conn is one client connection: a transport capped at one TCP connection.
type conn struct {
	id     uint64
	client *http.Client
	base   string
	buf    bytes.Buffer
	seq    uint64
}

func newConn(id int, base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{id: uint64(id), client: &http.Client{Transport: tr}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends r and fills s with the outcome; lat runs from from to the last
// body byte.
func (c *conn) do(r request, from time.Time, s *sample) {
	c.seq++
	s.req, s.id = r, c.id<<32|c.seq
	var hr *http.Request
	var err error
	if r.kind == opUpdate {
		hr, err = http.NewRequest(http.MethodPost, c.base+r.path(), bytes.NewReader(r.body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/json")
		}
	} else {
		hr, err = http.NewRequest(http.MethodGet, c.base+r.path(), nil)
	}
	if err != nil {
		s.err = err.Error()
		return
	}
	hr.Header.Set(requestIDHeader, strconv.FormatUint(s.id, 10))
	if r.bin {
		hr.Header.Set("Accept", serve.WireMIME)
	}
	resp, err := c.client.Do(hr)
	if err != nil {
		s.lat = time.Since(from)
		s.err = err.Error()
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(from)
	s.status = resp.StatusCode
	s.size = c.buf.Len()
	if err != nil {
		s.err = err.Error()
		return
	}
	s.body = retain(&r, c.buf.Bytes())
}

const requestIDHeader = "X-Request-Id"

// closedLoop sends gen's requests back to back on c until stop, appending
// to out. record false discards the samples (warm-up).
func closedLoop(c *conn, gen generator, t0, stop time.Time, record bool) []sample {
	var out []sample
	for time.Now().Before(stop) {
		start := time.Now()
		var s sample
		c.do(gen.next(), start, &s)
		if record {
			s.start = start.Sub(t0)
			out = append(out, s)
		}
	}
	return out
}

// openLoop sends one update batch every updateEvery from t0 until stop,
// timing each from its due time: a slow write path shows as backlog, not
// as a lower offered rate.
func openLoop(c *conn, gen *updateGen, t0, stop time.Time, record bool) []sample {
	var out []sample
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * updateEvery)
		if !due.Before(stop) {
			return out
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ups, r := gen.next()
		var s sample
		s.late = time.Since(due)
		c.do(r, due, &s)
		if s.ok() {
			gen.apply(ups)
		}
		if record {
			s.start = due.Sub(t0)
			out = append(out, s)
		}
	}
}

// phase is one drive of the workload's connections for a fixed time.
type phase struct {
	samples []sample // every reader and writer sample, recorded phases only
	elapsed time.Duration
}

// merge appends o as if it had run right after p.
func (p *phase) merge(o *phase) {
	for _, s := range o.samples {
		s.start += p.elapsed
		p.samples = append(p.samples, s)
	}
	p.elapsed += o.elapsed
}

// clients holds a workload's connections and generators across phases so
// warm-up, untraced and traced phases continue the same streams.
type clients struct {
	readers []generator
	writer  *updateGen
	conns   int // connections opened so far; numbers request IDs
}

// run drives every connection against base for d.
func (cl *clients) run(base string, d time.Duration, record bool) *phase {
	t0 := time.Now()
	stop := t0.Add(d)
	var wg sync.WaitGroup
	parts := make([][]sample, len(cl.readers)+1)
	first := cl.conns
	cl.conns += len(parts)
	for i, g := range cl.readers {
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			c := newConn(first+i, base)
			defer c.close()
			parts[i] = closedLoop(c, g, t0, stop, record)
		}(i, g)
	}
	if cl.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(first+len(cl.readers), base)
			defer c.close()
			parts[len(cl.readers)] = openLoop(c, cl.writer, t0, stop, record)
		}()
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(t0)}
	for _, part := range parts {
		p.samples = append(p.samples, part...)
	}
	return p
}

// get fetches one JSON answer outside any timed phase (verification).
func get(base, path string) ([]byte, int, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("reading %s: %w", path, err)
	}
	return b, resp.StatusCode, nil
}
