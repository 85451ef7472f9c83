package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fielddb"
	"fielddb/internal/geom"
	"fielddb/internal/tin"
)

// TestServePointCoverageGap: a TIN whose triangles leave part of its
// bounding box uncovered answers /point there with 404 — a typed miss, not
// an internal error — while covered points still answer 200.
func TestServePointCoverageGap(t *testing.T) {
	// Two triangles over the lower-left half of [0,10]²: Bounds() is the
	// whole square, but (8, 8) lies in no cell.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(5, 5), geom.Pt(10, 10)}
	vals := []float64{0, 10, 20, 15, 30}
	f, err := tin.New(pts, vals, []tin.Triangle{{0, 1, 3}, {0, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Bounds() != (geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}) {
		t.Fatalf("bounds = %v", f.Bounds())
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	hs := httptest.NewServer(New(map[string]*Field{"gappy": {Querier: db, DB: db}}, Config{}).Handler())
	t.Cleanup(hs.Close)

	var ok struct {
		Value float64 `json:"value"`
	}
	if st := getJSON(t, hs.URL+"/v1/fields/gappy/point?x=2&y=1", &ok); st != http.StatusOK {
		t.Fatalf("covered point: status %d", st)
	}
	var fail struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if st := getJSON(t, hs.URL+"/v1/fields/gappy/point?x=8&y=8", &fail); st != http.StatusNotFound {
		t.Fatalf("gap point: status %d, want 404 (%+v)", st, fail)
	}
	if fail.Error.Status != http.StatusNotFound || !strings.Contains(fail.Error.Message, "outside the field") {
		t.Fatalf("gap envelope = %+v", fail)
	}
}

// TestServeOversizedBodies: every POST endpoint reads at most maxBatchBody
// bytes and refuses a longer body with 413 before decoding it.
func TestServeOversizedBodies(t *testing.T) {
	_, hs, _ := testServer(t, Config{}, 0)
	// A well-formed prefix padded with whitespace past the bound: only the
	// size can make it fail.
	pad := bytes.Repeat([]byte{' '}, maxBatchBody)
	for _, tc := range []struct{ path, prefix string }{
		{"/v1/and", `{"conditions":[{"field":"terrain","lo":1,"hi":2}]}`},
		{"/v1/fields/terrain/batch", `{"intervals":[[1,2]]}`},
		{"/v1/fields/terrain/update", `{"updates":[{"sample":0,"value":1}]}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			body := append([]byte(tc.prefix), pad...)
			resp, err := http.Post(hs.URL+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, bytes.TrimSpace(raw))
			}
			var envelope struct {
				Error struct {
					Status int `json:"status"`
				} `json:"error"`
			}
			if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("envelope %q: %v", raw, err)
			}
			// The same body within the bound is accepted.
			if st := postJSON(t, hs.URL+tc.path, tc.prefix, nil); st != http.StatusOK {
				t.Fatalf("in-bound body: status %d", st)
			}
		})
	}
}

// TestHTTPServerTimeouts: the http.Server that fieldserve and RunLoad
// listen with bounds slow-header and idle keep-alive connections.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := New(map[string]*Field{}, Config{})
	hs := srv.HTTPServer("127.0.0.1:0")
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Fatalf("server = %+v", hs)
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", hs.IdleTimeout)
	}
}
