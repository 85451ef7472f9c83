package serve

// The zero-alloc encode path of the serving tier. PR 8 built every response
// as a map[string]any and handed it to encoding/json — two heap-heavy choices
// (interface boxing, reflection, and one []byte per geometry ring) that
// dominate the request cycle once the engine's own scans coalesce. This file
// replaces them with pooled scratch: every response is written through a
// reused bufio.Writer by hand-built JSON appenders that replicate
// encoding/json's byte output exactly (float formatting, string escaping,
// omitempty semantics), so switching the encoder is invisible on the wire.
//
// Geometry streams: rings are encoded one at a time into the pooled scratch
// and written through the 4 KiB bufio window, so a huge contour or isoband
// payload crosses the socket in chunks and never materializes as one
// allocation — the buffered and streamed bytes are identical by construction
// and asserted by TestStreamedGeometryByteIdentity.

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"fielddb"
	"fielddb/internal/storage"
)

// codecBufSize is the bufio window of the response path: big enough to hold
// every non-geometry response in one flush, small enough that streamed
// geometry keeps crossing the socket instead of accumulating.
const codecBufSize = 4096

// codec is the pooled per-request scratch of the response path: the buffered
// writer every response streams through, a JSON encoder bound to it (for the
// cold endpoints that still marshal structs), and reusable byte/float/slice
// scratch for hand-built JSON, binary frames, packed columns, and batch
// decode.
type codec struct {
	bw  *bufio.Writer
	enc *json.Encoder

	buf  []byte    // hand-built JSON fragments and binary frame headers
	col  []byte    // packed-column scratch (binary wire format)
	vals []float64 // column value scratch (binary wire format)

	// Batch request decode scratch: the body bytes and the interval slices
	// the decoder fills (capacity reused across requests).
	body      []byte
	pairs     [][2]float64
	intervals []fielddb.Interval

	poisoned bool // a json.Encoder error latches; drop instead of repooling
}

var codecPool = sync.Pool{
	New: func() any {
		c := &codec{
			bw:  bufio.NewWriterSize(io.Discard, codecBufSize),
			buf: make([]byte, 0, 512),
		}
		c.enc = json.NewEncoder(c.bw)
		c.enc.SetEscapeHTML(false)
		return c
	},
}

// getCodec leases a codec targeting w.
func getCodec(w io.Writer) *codec {
	c := codecPool.Get().(*codec)
	c.bw.Reset(w)
	c.poisoned = false
	return c
}

// put returns the codec to the pool after flushing, unless an encoder error
// poisoned it.
func (c *codec) put() {
	if err := c.bw.Flush(); err != nil {
		// The client went away mid-write; the bufio error is cleared by the
		// next Reset, so the codec stays reusable unless the json.Encoder
		// (which latches errors forever) saw it.
		_ = err
	}
	c.bw.Reset(io.Discard)
	if c.poisoned {
		return
	}
	codecPool.Put(c)
}

// encodeJSON marshals v through the pooled encoder (the cold endpoints:
// listings, metrics, traces, conjunctions).
func (c *codec) encodeJSON(v any) {
	if err := c.enc.Encode(v); err != nil {
		c.poisoned = true
	}
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, %f form except for magnitudes outside
// [1e-6, 1e21), and exponents stripped of their leading zero. Callers
// guarantee finite values — the facade's validation rejects NaN/±Inf before
// any query runs.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the bytes encoding/json leaves unescaped with EscapeHTML
// disabled: everything printable except the quote and the backslash.
func jsonSafe(b byte) bool { return b >= 0x20 && b != '"' && b != '\\' }

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json with SetEscapeHTML(false): named escapes for \n \r \t,
// \u00xx for other control bytes, � for invalid UTF-8, and  /
// escaped for JavaScript embedding.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendIOView appends the ioView object for st.
func appendIOView(b []byte, st fielddb.Result) []byte {
	return appendIOStatsView(b, st.IO)
}

// appendIOStatsView appends the ioView object for a raw stats block — shared
// by the value-query and aggregate envelopes, whose results carry the same
// deterministic I/O accounting.
func appendIOStatsView(b []byte, io storage.Stats) []byte {
	b = append(b, `{"reads":`...)
	b = strconv.AppendInt(b, int64(io.Reads), 10)
	b = append(b, `,"seq_reads":`...)
	b = strconv.AppendInt(b, int64(io.SeqReads), 10)
	b = append(b, `,"rand_reads":`...)
	b = strconv.AppendInt(b, int64(io.RandReads), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(io.CacheHits), 10)
	b = append(b, `,"sim_elapsed_ns":`...)
	b = strconv.AppendInt(b, int64(io.SimElapsed), 10)
	return append(b, '}')
}

// appendResultOpen appends the resultView object for res up to (and
// excluding) its optional geometry member and closing brace; the caller
// streams geometry and closes.
func appendResultOpen(b []byte, res *fielddb.Result) []byte {
	b = append(b, `{"lo":`...)
	b = appendJSONFloat(b, res.Query.Lo)
	b = append(b, `,"hi":`...)
	b = appendJSONFloat(b, res.Query.Hi)
	b = append(b, `,"candidate_groups":`...)
	b = strconv.AppendInt(b, int64(res.CandidateGroups), 10)
	b = append(b, `,"cells_fetched":`...)
	b = strconv.AppendInt(b, int64(res.CellsFetched), 10)
	b = append(b, `,"cells_matched":`...)
	b = strconv.AppendInt(b, int64(res.CellsMatched), 10)
	b = append(b, `,"regions":`...)
	b = strconv.AppendInt(b, int64(len(res.Regions)), 10)
	b = append(b, `,"isolines":`...)
	b = strconv.AppendInt(b, int64(len(res.Isolines)), 10)
	b = append(b, `,"area":`...)
	b = appendJSONFloat(b, res.Area)
	b = append(b, `,"io":`...)
	return appendIOView(b, *res)
}

// streamRings writes a [][2]float64-shaped JSON array of rings through the
// buffered writer, one ring per Write so bufio chunks the payload. The
// element type is fielddb.Polygon for isoband regions and contour polylines
// alike.
func (c *codec) streamRings(rings []fielddb.Polygon) {
	c.bw.WriteByte('[')
	for i, ring := range rings {
		b := c.buf[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, p := range ring {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = appendJSONFloat(b, p.X)
			b = append(b, ',')
			b = appendJSONFloat(b, p.Y)
			b = append(b, ']')
			// Bound the fragment: hand the ring to bufio in slices so one
			// giant ring cannot balloon the scratch buffer.
			if len(b) >= codecBufSize {
				c.bw.Write(b)
				b = b[:0]
			}
		}
		b = append(b, ']')
		c.bw.Write(b)
		c.buf = b[:0]
	}
	c.bw.WriteByte(']')
}

// writeResultEnvelope streams the {"field":...,"result":...} response of the
// range/above/below endpoints. quotedField is the field's pre-escaped JSON
// name. Geometry is included only when requested and non-empty, matching the
// omitempty semantics of the PR 8 struct encoding.
func (c *codec) writeResultEnvelope(w http.ResponseWriter, quotedField []byte, res *fielddb.Result, geometry bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := c.buf[:0]
	b = append(b, `{"field":`...)
	b = append(b, quotedField...)
	b = append(b, `,"result":`...)
	b = appendResultOpen(b, res)
	c.bw.Write(b)
	c.buf = b[:0]
	if geometry && len(res.Regions) > 0 {
		c.bw.WriteString(`,"geometry":`)
		c.streamRings(res.Regions)
	}
	c.bw.WriteString("}}\n")
}

// writePointEnvelope streams the /point response.
func (c *codec) writePointEnvelope(w http.ResponseWriter, quotedField []byte, x, y, value float64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := c.buf[:0]
	b = append(b, `{"field":`...)
	b = append(b, quotedField...)
	b = append(b, `,"x":`...)
	b = appendJSONFloat(b, x)
	b = append(b, `,"y":`...)
	b = appendJSONFloat(b, y)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, value)
	b = append(b, "}\n"...)
	c.bw.Write(b)
	c.buf = b[:0]
}

// writeContourEnvelope streams the /contour response; polylines stream like
// geometry rings.
func (c *codec) writeContourEnvelope(w http.ResponseWriter, quotedField []byte, level float64, cr *fielddb.ContourResult, geometry bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := c.buf[:0]
	b = append(b, `{"field":`...)
	b = append(b, quotedField...)
	b = append(b, `,"level":`...)
	b = appendJSONFloat(b, level)
	b = append(b, `,"polylines":`...)
	b = strconv.AppendInt(b, int64(len(cr.Polylines)), 10)
	b = append(b, `,"io":{"reads":`...)
	b = strconv.AppendInt(b, int64(cr.IO.Reads), 10)
	b = append(b, `,"seq_reads":`...)
	b = strconv.AppendInt(b, int64(cr.IO.SeqReads), 10)
	b = append(b, `,"rand_reads":`...)
	b = strconv.AppendInt(b, int64(cr.IO.RandReads), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(cr.IO.CacheHits), 10)
	b = append(b, `,"sim_elapsed_ns":`...)
	b = strconv.AppendInt(b, int64(cr.IO.SimElapsed), 10)
	b = append(b, '}')
	c.bw.Write(b)
	c.buf = b[:0]
	if geometry && len(cr.Polylines) > 0 {
		c.bw.WriteString(`,"geometry":`)
		c.streamRings(polylinesAsPolygons(cr.Polylines))
	}
	c.bw.WriteString("}\n")
}

// polylinesAsPolygons reinterprets contour polylines as the ring slice the
// streamer walks. Polyline and Polygon are both []Point, so this is a
// conversion, not a copy.
func polylinesAsPolygons(pls []fielddb.Polyline) []fielddb.Polygon {
	out := make([]fielddb.Polygon, 0, 16)
	if cap(out) < len(pls) {
		out = make([]fielddb.Polygon, 0, len(pls))
	}
	for _, pl := range pls {
		out = append(out, fielddb.Polygon(pl))
	}
	return out
}

// writeBatchEnvelope streams the /batch response: positional member results
// (null for failed members), optional batch-level shared-scan stats, and the
// first member error when the batch partially failed.
func (c *codec) writeBatchEnvelope(w http.ResponseWriter, quotedField []byte, results []*fielddb.Result, st *fielddb.BatchStats, batchErr error, geometry bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := c.buf[:0]
	b = append(b, `{"field":`...)
	b = append(b, quotedField...)
	b = append(b, `,"results":[`...)
	c.bw.Write(b)
	c.buf = b[:0]
	for i, res := range results {
		b = c.buf[:0]
		if i > 0 {
			b = append(b, ',')
		}
		if res == nil {
			b = append(b, "null"...)
			c.bw.Write(b)
			c.buf = b[:0]
			continue
		}
		b = appendResultOpen(b, res)
		c.bw.Write(b)
		c.buf = b[:0]
		if geometry && len(res.Regions) > 0 {
			c.bw.WriteString(`,"geometry":`)
			c.streamRings(res.Regions)
		}
		c.bw.WriteByte('}')
	}
	b = c.buf[:0]
	b = append(b, ']')
	if st != nil {
		b = append(b, `,"batch":{"size":`...)
		b = strconv.AppendInt(b, int64(st.Size), 10)
		b = append(b, `,"physical_reads":`...)
		b = strconv.AppendInt(b, int64(st.Physical.Reads), 10)
		b = append(b, `,"physical_sim_ns":`...)
		b = strconv.AppendInt(b, int64(st.Physical.SimElapsed), 10)
		b = append(b, `,"attributed_reads":`...)
		b = strconv.AppendInt(b, int64(st.AttributedReads), 10)
		b = append(b, `,"pages_saved":`...)
		b = strconv.AppendInt(b, int64(st.PagesSaved), 10)
		b = append(b, '}')
	}
	if batchErr != nil {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, batchErr.Error())
	}
	b = append(b, "}\n"...)
	c.bw.Write(b)
	c.buf = b[:0]
}

// writeAggregateEnvelope streams the /aggregate response. max_err encodes as
// null when the resolved tolerance is +Inf (a degraded request accepted any
// certified bound) — JSON has no Infinity literal, and null states the same
// fact: no finite tolerance constrained this answer.
func (c *codec) writeAggregateEnvelope(w http.ResponseWriter, quotedField []byte, res *fielddb.AggregateResult, degraded bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := c.buf[:0]
	b = append(b, `{"field":`...)
	b = append(b, quotedField...)
	b = append(b, `,"result":{"lo":`...)
	b = appendJSONFloat(b, res.Query.Lo)
	b = append(b, `,"hi":`...)
	b = appendJSONFloat(b, res.Query.Hi)
	b = append(b, `,"max_err":`...)
	if math.IsInf(res.MaxErr, 1) {
		b = append(b, "null"...)
	} else {
		b = appendJSONFloat(b, res.MaxErr)
	}
	b = append(b, `,"count":`...)
	b = appendJSONFloat(b, res.Count)
	b = append(b, `,"count_bound":`...)
	b = appendJSONFloat(b, res.CountBound)
	b = append(b, `,"area":`...)
	b = appendJSONFloat(b, res.Area)
	b = append(b, `,"area_bound":`...)
	b = appendJSONFloat(b, res.AreaBound)
	b = append(b, `,"fraction":`...)
	b = appendJSONFloat(b, res.Fraction)
	b = append(b, `,"fraction_bound":`...)
	b = appendJSONFloat(b, res.FractionBound)
	b = append(b, `,"total_cells":`...)
	b = appendJSONFloat(b, res.TotalCells)
	b = append(b, `,"total_area":`...)
	b = appendJSONFloat(b, res.TotalArea)
	b = append(b, `,"approx":`...)
	b = strconv.AppendBool(b, res.Approx)
	b = append(b, `,"fallback":`...)
	b = strconv.AppendBool(b, res.Fallback)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, degraded)
	b = append(b, `,"io":`...)
	b = appendIOStatsView(b, res.IO)
	b = append(b, "}}\n"...)
	c.bw.Write(b)
	c.buf = b[:0]
}

// writeUpdateEnvelope streams the /update response.
func (c *codec) writeUpdateEnvelope(w http.ResponseWriter, quotedField []byte, st *fielddb.UpdateStats) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := c.buf[:0]
	b = append(b, `{"field":`...)
	b = append(b, quotedField...)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, st.Epoch, 10)
	b = append(b, `,"spatial_epoch":`...)
	b = strconv.AppendUint(b, st.SpatialEpoch, 10)
	b = append(b, `,"samples_applied":`...)
	b = strconv.AppendInt(b, int64(st.SamplesApplied), 10)
	b = append(b, `,"cells_touched":`...)
	b = strconv.AppendInt(b, int64(st.CellsTouched), 10)
	b = append(b, `,"pages_written":`...)
	b = strconv.AppendInt(b, int64(st.PagesWritten), 10)
	b = append(b, `,"regrouped":`...)
	b = strconv.AppendBool(b, st.Regrouped)
	b = append(b, "}\n"...)
	c.bw.Write(b)
	c.buf = b[:0]
}

// writeErrorEnvelope streams the error envelope for status.
func (c *codec) writeErrorEnvelope(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b := c.buf[:0]
	b = append(b, `{"error":{"status":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, `,"message":`...)
	b = appendJSONString(b, msg)
	b = append(b, "}}\n"...)
	c.bw.Write(b)
	c.buf = b[:0]
}

// readBody drains r into the pooled body scratch. A body longer than
// maxBytes is refused with errBodyTooLarge rather than silently truncated.
func (c *codec) readBody(r io.Reader, maxBytes int64) ([]byte, error) {
	c.body = c.body[:0]
	lr := io.LimitReader(r, maxBytes+1)
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := lr.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if int64(len(c.body)) > maxBytes {
			return nil, errBodyTooLarge
		}
		if err == io.EOF {
			return c.body, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
