// Package band extracts exact answer regions for field value queries: given
// a cell with linearly interpolated sample values and a query band
// [lo, hi], it computes the sub-region of the cell where the interpolated
// value lies inside the band. This is the "estimation step" of the paper's
// search algorithm (Algorithm Estimate, §3.2) — the inverse interpolation
// f⁻¹(w) applied to the sample points of candidate cells.
//
// Under linear interpolation the value function over a triangle is affine,
// so the answer region is the triangle clipped by two half-planes — a convex
// polygon. Rectangular DEM cells are split into two triangles along a fixed
// diagonal, which is the standard piecewise-linear reading of "a simple
// linear interpolation" over a grid cell.
package band

import (
	"fielddb/internal/geom"
)

// TriangleGradient returns the affine value function over the triangle
// (p0,p1,p2) with vertex values (w0,w1,w2): value(p) = G·p + b.
// ok is false when the triangle is degenerate (zero area).
func TriangleGradient(p0, p1, p2 geom.Point, w0, w1, w2 float64) (grad geom.Point, b float64, ok bool) {
	// Solve the 2x2 system from value differences along two edges.
	e1 := p1.Sub(p0)
	e2 := p2.Sub(p0)
	det := e1.Cross(e2)
	if det > -1e-300 && det < 1e-300 {
		return geom.Point{}, 0, false
	}
	d1 := w1 - w0
	d2 := w2 - w0
	gx := (d1*e2.Y - d2*e1.Y) / det
	gy := (d2*e1.X - d1*e2.X) / det
	grad = geom.Pt(gx, gy)
	b = w0 - grad.Dot(p0)
	return grad, b, true
}

// TriangleValue returns the linearly interpolated value at p inside the
// triangle (p0,p1,p2) using barycentric coordinates, and whether p lies
// inside (within a small tolerance).
func TriangleValue(p0, p1, p2 geom.Point, w0, w1, w2 float64, p geom.Point) (float64, bool) {
	det := geom.Orient(p0, p1, p2)
	if det > -1e-300 && det < 1e-300 {
		return 0, false
	}
	l0 := geom.Orient(p1, p2, p) / det
	l1 := geom.Orient(p2, p0, p) / det
	l2 := 1 - l0 - l1
	const eps = -1e-9
	if l0 < eps || l1 < eps || l2 < eps {
		return 0, false
	}
	return l0*w0 + l1*w1 + l2*w2, true
}

// TriangleBand returns the region of the triangle where the interpolated
// value lies in [lo, hi]. The result is nil or a single convex polygon.
// A degenerate triangle whose (constant) value lies in the band is returned
// whole.
func TriangleBand(p0, p1, p2 geom.Point, w0, w1, w2 float64, lo, hi float64) geom.Polygon {
	var s Scratch
	if pg := TriangleBandInto(&s, p0, p1, p2, w0, w1, w2, lo, hi); pg != nil {
		return pg.Clone()
	}
	return nil
}

// Scratch is caller-owned clipping storage for TriangleBandInto: the
// oriented triangle and the output of each of the two half-plane clips. A
// triangle clipped by two half-planes keeps at most 5 vertices, so a
// Scratch on the stack makes band extraction allocation-free.
type Scratch [3][5]geom.Point

// TriangleBandInto is TriangleBand computed in s: the same vertices in the
// same order, but the returned polygon aliases s and is valid only until s
// is reused. Callers that keep it must copy it.
func TriangleBandInto(s *Scratch, p0, p1, p2 geom.Point, w0, w1, w2 float64, lo, hi float64) geom.Polygon {
	tri := append(geom.Polygon(s[0][:0]), p0, p1, p2)
	grad, b, ok := TriangleGradient(p0, p1, p2, w0, w1, w2)
	if !ok {
		// Degenerate: treat as constant at the average value.
		avg := (w0 + w1 + w2) / 3
		if lo <= avg && avg <= hi {
			return tri
		}
		return nil
	}
	if tri.SignedArea() < 0 {
		// geom.EnsureCCW's reversal, in place.
		tri[0], tri[2] = tri[2], tri[0]
	}
	// value(p) <= hi   <=>   G·p <= hi - b
	pg := geom.ClipConvexInto(s[1][:0], tri, geom.HalfPlane{N: grad, C: hi - b})
	if pg == nil {
		return nil
	}
	// value(p) >= lo   <=>   -G·p <= b - lo
	return geom.ClipConvexInto(s[2][:0], pg, geom.HalfPlane{N: geom.Point{X: -grad.X, Y: -grad.Y}, C: b - lo})
}

// QuadBand returns the answer region of an axis-aligned quad cell with
// corner values in counter-clockwise order (v0 at min corner, v1 at
// (max.X, min.Y), v2 at max corner, v3 at (min.X, max.Y)), split along the
// v0–v2 diagonal into two linear triangles. Zero, one or two convex
// polygons are returned.
func QuadBand(r geom.Rect, v0, v1, v2, v3 float64, lo, hi float64) []geom.Polygon {
	var s [2]Scratch
	pgs, n := QuadBandInto(&s, r, v0, v1, v2, v3, lo, hi)
	var out []geom.Polygon
	for _, pg := range pgs[:n] {
		out = append(out, pg.Clone())
	}
	return out
}

// QuadBandInto is QuadBand computed in s, one Scratch per triangle: the n
// polygons in pgs alias s and are valid only until s is reused.
func QuadBandInto(s *[2]Scratch, r geom.Rect, v0, v1, v2, v3 float64, lo, hi float64) (pgs [2]geom.Polygon, n int) {
	p0 := r.Min
	p1 := geom.Pt(r.Max.X, r.Min.Y)
	p2 := r.Max
	p3 := geom.Pt(r.Min.X, r.Max.Y)
	if pg := TriangleBandInto(&s[0], p0, p1, p2, v0, v1, v2, lo, hi); pg != nil {
		pgs[n] = pg
		n++
	}
	if pg := TriangleBandInto(&s[1], p0, p2, p3, v0, v2, v3, lo, hi); pg != nil {
		pgs[n] = pg
		n++
	}
	return pgs, n
}

// QuadValue returns the piecewise-linear interpolated value at p inside the
// quad (same triangle split as QuadBand), and whether p is inside.
func QuadValue(r geom.Rect, v0, v1, v2, v3 float64, p geom.Point) (float64, bool) {
	p0 := r.Min
	p1 := geom.Pt(r.Max.X, r.Min.Y)
	p2 := r.Max
	p3 := geom.Pt(r.Min.X, r.Max.Y)
	if w, ok := TriangleValue(p0, p1, p2, v0, v1, v2, p); ok {
		return w, true
	}
	return TriangleValue(p0, p2, p3, v0, v2, v3, p)
}

// Isoline returns the segment where the interpolated value equals w inside
// the triangle: the degenerate band [w, w]. ok reports whether the level
// crosses the triangle; seg holds the two endpoints on its boundary.
//
// When the level passes exactly through a vertex, two edges report that same
// vertex; duplicates are removed before deciding whether a genuine crossing
// exists, so a contour entering through a vertex and leaving through the
// opposite edge is not lost.
func Isoline(p0, p1, p2 geom.Point, w0, w1, w2 float64, w float64) (seg [2]geom.Point, ok bool) {
	// Deduplication tolerance relative to the triangle size.
	size := p0.Dist(p1) + p1.Dist(p2) + p2.Dist(p0)
	tol := size * 1e-12
	edges := [3]struct {
		a, b   geom.Point
		wa, wb float64
	}{{p0, p1, w0, w1}, {p1, p2, w1, w2}, {p2, p0, w2, w0}}
	n := 0
	for _, e := range edges {
		if (e.wa < w && e.wb < w) || (e.wa > w && e.wb > w) {
			continue
		}
		if e.wa == e.wb {
			continue // edge lies on the level; endpoints handled by other edges
		}
		t := (w - e.wa) / (e.wb - e.wa)
		if t < 0 || t > 1 {
			continue
		}
		p := e.a.Add(e.b.Sub(e.a).Scale(t))
		dup := false
		for _, q := range seg[:n] {
			if p.Dist(q) <= tol {
				dup = true
				break
			}
		}
		if !dup && n < 2 {
			seg[n] = p
			n++
		}
	}
	return seg, n == 2
}
