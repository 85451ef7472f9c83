package core

import (
	"fmt"
	"math"
	"testing"

	"fielddb/internal/band"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/workload"
)

// referenceBand is the allocating band extraction the scratch path replaced:
// each triangle oriented by geom.EnsureCCW and clipped by
// geom.ClipConvexBand, quads split along the v0–v2 diagonal, a degenerate
// triangle returned whole when its average value lies in the band.
func referenceBand(c *field.Cell, lo, hi float64) []geom.Polygon {
	tri := func(p0, p1, p2 geom.Point, w0, w1, w2 float64) geom.Polygon {
		grad, b, ok := band.TriangleGradient(p0, p1, p2, w0, w1, w2)
		if !ok {
			if avg := (w0 + w1 + w2) / 3; lo <= avg && avg <= hi {
				return geom.Polygon{p0, p1, p2}
			}
			return nil
		}
		return geom.ClipConvexBand(geom.EnsureCCW(geom.Polygon{p0, p1, p2}), grad, b, lo, hi)
	}
	var out []geom.Polygon
	keep := func(pg geom.Polygon) {
		if pg != nil {
			out = append(out, pg)
		}
	}
	v, w := c.Vertices, c.Values
	switch len(v) {
	case 3:
		keep(tri(v[0], v[1], v[2], w[0], w[1], w[2]))
	case 4:
		r := c.Bounds()
		p1, p3 := geom.Pt(r.Max.X, r.Min.Y), geom.Pt(r.Min.X, r.Max.Y)
		keep(tri(r.Min, p1, r.Max, w[0], w[1], w[2]))
		keep(tri(r.Min, r.Max, p3, w[0], w[2], w[3]))
	}
	return out
}

// referenceIsoline is the closure-based, allocating form band.Isoline had
// before it moved to a fixed array: collect edge crossings, dropping
// near-duplicates, keep the first two, and report none when fewer than two
// remain.
func referenceIsoline(p0, p1, p2 geom.Point, w0, w1, w2, w float64) []geom.Point {
	var pts []geom.Point
	tol := (p0.Dist(p1) + p1.Dist(p2) + p2.Dist(p0)) * 1e-12
	edge := func(a, b geom.Point, wa, wb float64) {
		if (wa < w && wb < w) || (wa > w && wb > w) || wa == wb {
			return
		}
		t := (w - wa) / (wb - wa)
		if t < 0 || t > 1 {
			return
		}
		p := a.Add(b.Sub(a).Scale(t))
		for _, q := range pts {
			if p.Dist(q) <= tol {
				return
			}
		}
		pts = append(pts, p)
	}
	edge(p0, p1, w0, w1)
	edge(p1, p2, w1, w2)
	edge(p2, p0, w2, w0)
	if len(pts) < 2 {
		return nil
	}
	return pts[:2]
}

func referenceIsolines(c *field.Cell, w float64) [][2]geom.Point {
	var out [][2]geom.Point
	seg := func(p0, p1, p2 geom.Point, w0, w1, w2 float64) {
		if pts := referenceIsoline(p0, p1, p2, w0, w1, w2, w); pts != nil {
			out = append(out, [2]geom.Point{pts[0], pts[1]})
		}
	}
	v, vals := c.Vertices, c.Values
	switch len(v) {
	case 3:
		seg(v[0], v[1], v[2], vals[0], vals[1], vals[2])
	case 4:
		r := c.Bounds()
		p1, p3 := geom.Pt(r.Max.X, r.Min.Y), geom.Pt(r.Min.X, r.Max.Y)
		seg(r.Min, p1, r.Max, vals[0], vals[1], vals[2])
		seg(r.Min, r.Max, p3, vals[0], vals[2], vals[3])
	}
	return out
}

func samePointBits(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

func samePolygonBits(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePointBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// refineCells gathers every cell shape the estimation step meets: grid
// quads, TIN triangles in both orientations, degenerate triangles and
// cells whose bands touch them only along an edge or at a vertex.
func refineCells(t *testing.T) []field.Cell {
	var cells []field.Cell
	add := func(f field.Field) {
		for id := 0; id < f.NumCells(); id++ {
			var c field.Cell
			f.Cell(field.CellID(id), &c)
			cells = append(cells, c)
		}
	}
	add(testDEM(t, 16, 0.6))
	tn := testTIN(t, 150)
	add(tn)
	// The TIN's triangles again, clockwise.
	for id := 0; id < tn.NumCells(); id++ {
		var c field.Cell
		tn.Cell(field.CellID(id), &c)
		c.Vertices[1], c.Vertices[2] = c.Vertices[2], c.Vertices[1]
		c.Values[1], c.Values[2] = c.Values[2], c.Values[1]
		cells = append(cells, c)
	}
	tri := func(p0, p1, p2 geom.Point, w0, w1, w2 float64) field.Cell {
		return field.Cell{Vertices: []geom.Point{p0, p1, p2}, Values: []float64{w0, w1, w2}}
	}
	quad := func(x0, y0, x1, y1, w0, w1, w2, w3 float64) field.Cell {
		return field.Cell{
			Vertices: []geom.Point{geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1)},
			Values:   []float64{w0, w1, w2, w3},
		}
	}
	cells = append(cells,
		// Degenerate: collinear, coincident, and collinear with a slope.
		tri(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2), 5, 5, 5),
		tri(geom.Pt(3, 3), geom.Pt(3, 3), geom.Pt(3, 3), 1, 2, 3),
		tri(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3, 0), 0, 4, 8),
		// Clockwise.
		tri(geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0), 0, 1, 2),
		// Edge- and vertex-touching: the band meets the cell where the
		// interpolant equals its maximum.
		tri(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 0, 1, 1),
		tri(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 0, 0, 1),
		quad(0, 0, 1, 1, 0, 0, 1, 1),
		quad(2, 2, 3, 3, 1, 0, 0, 0),
		// Thin sliver triangle.
		tri(geom.Pt(0, 0), geom.Pt(1e3, 0), geom.Pt(1e3, 1e-9), 0, 10, 10),
	)
	return cells
}

// refineBands returns the query bands refineCells' cells are cut with:
// around and between every pair of vertex values, plus a narrow band at
// the value mid-range.
func refineBands(c *field.Cell) []geom.Interval {
	iv := c.Interval()
	out := []geom.Interval{{Lo: iv.Lo - 1, Hi: iv.Hi + 1}, {Lo: iv.Hi, Hi: iv.Hi + 1}, {Lo: iv.Lo - 1, Hi: iv.Lo}}
	for _, a := range c.Values {
		for _, b := range c.Values {
			if a < b {
				out = append(out, geom.Interval{Lo: a, Hi: b})
			}
		}
	}
	mid := (iv.Lo + iv.Hi) / 2
	return append(out, geom.Interval{Lo: mid - 1e-9, Hi: mid + 1e-9}, geom.Interval{Lo: mid, Hi: mid})
}

// TestRefineBitIdentity: the scratch band path produces exactly the
// vertices, order and area bits of the allocating extraction, both per
// cell (field.BandInto, field.Band) and folded through estimateMatched into
// one Result across many slab chunks.
func TestRefineBitIdentity(t *testing.T) {
	cells := refineCells(t)
	res := &Result{}
	var want []geom.Polygon
	var wantArea float64
	var wantIso [][2]geom.Point
	for ci := range cells {
		c := &cells[ci]
		for _, q := range refineBands(c) {
			label := fmt.Sprintf("cell %d %v band %v", ci, c.Vertices, q)
			ref := referenceBand(c, q.Lo, q.Hi)
			var s [2]band.Scratch
			pgs, n := field.BandInto(&s, c, q.Lo, q.Hi)
			if n != len(ref) {
				t.Fatalf("%s: BandInto gave %d polygons, want %d", label, n, len(ref))
			}
			alloc := field.Band(c, q.Lo, q.Hi)
			if len(alloc) != len(ref) {
				t.Fatalf("%s: Band gave %d polygons, want %d", label, len(alloc), len(ref))
			}
			for i := range ref {
				if !samePolygonBits(pgs[i], ref[i]) || !samePolygonBits(alloc[i], ref[i]) {
					t.Fatalf("%s: polygon %d = %v / %v, want %v", label, i, pgs[i], alloc[i], ref[i])
				}
			}

			estimateMatched(res, c, q)
			if q.Length() == 0 {
				wantIso = append(wantIso, referenceIsolines(c, q.Lo)...)
				continue
			}
			for _, pg := range ref {
				if a := pg.Area(); a > 1e-12 {
					want = append(want, pg)
					wantArea += a
				}
			}
		}
	}
	if len(res.Regions) != len(want) {
		t.Fatalf("%d regions, want %d", len(res.Regions), len(want))
	}
	for i := range want {
		if !samePolygonBits(res.Regions[i], want[i]) {
			t.Fatalf("region %d = %v, want %v", i, res.Regions[i], want[i])
		}
	}
	if math.Float64bits(res.Area) != math.Float64bits(wantArea) {
		t.Fatalf("area %v, want %v (bits differ)", res.Area, wantArea)
	}
	if len(res.Isolines) != len(wantIso) {
		t.Fatalf("%d isolines, want %d", len(res.Isolines), len(wantIso))
	}
	for i := range wantIso {
		if !samePointBits(res.Isolines[i][0], wantIso[i][0]) || !samePointBits(res.Isolines[i][1], wantIso[i][1]) {
			t.Fatalf("isoline %d = %v, want %v", i, res.Isolines[i], wantIso[i])
		}
	}
	if len(res.Regions) < maxSlabChunk {
		t.Fatalf("only %d regions: the fixture no longer spans several slab chunks", len(res.Regions))
	}
}

// TestRegionSlabAliasing: answer regions share slab chunks, yet appending
// to any region never changes another — sequential and parallel-merged
// results alike.
func TestRegionSlabAliasing(t *testing.T) {
	f := testDEM(t, 64, 0.6)
	idx, err := BuildIHilbert(f, newPager(), HilbertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	q := geom.Interval{Lo: vr.Lo + 0.2*vr.Length(), Hi: vr.Lo + 0.6*vr.Length()}
	for _, workers := range []int{1, 4} {
		idx.SetWorkers(workers)
		res, err := idx.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Regions) < 2*maxSlabChunk/4 {
			t.Fatalf("workers=%d: only %d regions, too few to span several chunks", workers, len(res.Regions))
		}
		orig := make([]geom.Polygon, len(res.Regions))
		for i, pg := range res.Regions {
			orig[i] = pg.Clone()
		}
		for i := range res.Regions {
			res.Regions[i] = append(res.Regions[i], geom.Pt(-1, -1), geom.Pt(-2, -2))
			if i+1 < len(res.Regions) && !samePolygonBits(res.Regions[i+1], orig[i+1]) {
				t.Fatalf("workers=%d: appending to region %d changed region %d: %v, was %v",
					workers, i, i+1, res.Regions[i+1], orig[i+1])
			}
		}
		for i, pg := range res.Regions {
			if !samePolygonBits(pg[:len(orig[i])], orig[i]) {
				t.Fatalf("workers=%d: region %d changed: %v, was %v", workers, i, pg, orig[i])
			}
		}
	}
}

// TestRefineAllocs gates the per-query allocation count of refinement on
// the 256×256 benchmark terrain (the BenchmarkValueRange I-Hilbert
// sel=0.05 rotation): ~2k allocations, against ~44.6k when every clip and
// every region was its own heap object.
func TestRefineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIHilbert(f, newPager(), HilbertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const sel = 0.05
	queries := workload.Queries(f.ValueRange(), sel, 64, 4217+int64(sel*1e6))
	i := 0
	got := testing.AllocsPerRun(len(queries), func() {
		if _, err := idx.Query(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got > 4000 {
		t.Fatalf("%.0f allocs per query, want <= 4000", got)
	}
}
