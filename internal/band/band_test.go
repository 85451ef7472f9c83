package band

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fielddb/internal/geom"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTriangleGradient(t *testing.T) {
	// w(x, y) = 2x + 3y + 1 sampled at three points must be recovered.
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	w := func(p geom.Point) float64 { return 2*p.X + 3*p.Y + 1 }
	grad, b, ok := TriangleGradient(p0, p1, p2, w(p0), w(p1), w(p2))
	if !ok {
		t.Fatal("gradient failed")
	}
	if !almostEq(grad.X, 2) || !almostEq(grad.Y, 3) || !almostEq(b, 1) {
		t.Fatalf("grad = %v, b = %g", grad, b)
	}
	// Degenerate triangle.
	if _, _, ok := TriangleGradient(p0, p1, geom.Pt(2, 0), 0, 1, 2); ok {
		t.Fatal("degenerate triangle accepted")
	}
}

func TestTriangleValue(t *testing.T) {
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(0, 2)
	// Vertex values reproduced exactly.
	for i, c := range []struct {
		p    geom.Point
		want float64
	}{
		{p0, 10}, {p1, 20}, {p2, 30},
		{geom.Pt(1, 0), 15},         // edge midpoint
		{geom.Pt(2.0/3, 2.0/3), 20}, // centroid = mean
	} {
		got, ok := TriangleValue(p0, p1, p2, 10, 20, 30, c.p)
		if !ok {
			t.Fatalf("case %d: point reported outside", i)
		}
		if !almostEq(got, c.want) {
			t.Fatalf("case %d: value = %g, want %g", i, got, c.want)
		}
	}
	// Outside point.
	if _, ok := TriangleValue(p0, p1, p2, 10, 20, 30, geom.Pt(3, 3)); ok {
		t.Fatal("outside point reported inside")
	}
}

func TestTriangleBandFullAndEmpty(t *testing.T) {
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	// Band covering the whole value range returns the whole triangle.
	pg := TriangleBand(p0, p1, p2, 1, 2, 3, 0, 10)
	if pg == nil || !almostEq(pg.Area(), 0.5) {
		t.Fatalf("full band area = %v", pg.Area())
	}
	// Band outside the range returns nil.
	if pg := TriangleBand(p0, p1, p2, 1, 2, 3, 5, 6); pg != nil {
		t.Fatalf("out-of-range band = %v", pg)
	}
}

func TestTriangleBandHalf(t *testing.T) {
	// w = x over the unit right triangle (0,0),(1,0),(0,1):
	// region with w <= t is the trapezoid left of x = t.
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	pg := TriangleBand(p0, p1, p2, 0, 1, 0, 0, 0.5)
	// Area left of x=0.5 inside the triangle = 0.5 - (0.5)^2/2 = 0.375.
	if !almostEq(pg.Area(), 0.375) {
		t.Fatalf("half band area = %g, want 0.375", pg.Area())
	}
}

func TestTriangleBandDegenerate(t *testing.T) {
	// Degenerate (collinear) triangle with constant value.
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2)
	if pg := TriangleBand(p0, p1, p2, 5, 5, 5, 4, 6); pg == nil {
		t.Fatal("in-band degenerate triangle dropped")
	}
	if pg := TriangleBand(p0, p1, p2, 5, 5, 5, 6, 7); pg != nil {
		t.Fatal("out-of-band degenerate triangle kept")
	}
}

func TestQuadBand(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}
	// Values v = x at corners: v0=0 (0,0), v1=1 (1,0), v2=1 (1,1), v3=0 (0,1).
	pgs := QuadBand(r, 0, 1, 1, 0, 0.25, 0.75)
	total := 0.0
	for _, pg := range pgs {
		total += pg.Area()
	}
	if !almostEq(total, 0.5) {
		t.Fatalf("quad band area = %g, want 0.5", total)
	}
	// Full range returns the entire cell.
	pgs = QuadBand(r, 0, 1, 1, 0, -1, 2)
	total = 0
	for _, pg := range pgs {
		total += pg.Area()
	}
	if !almostEq(total, 1) {
		t.Fatalf("full quad area = %g", total)
	}
	// Empty band.
	if pgs := QuadBand(r, 0, 1, 1, 0, 5, 6); len(pgs) != 0 {
		t.Fatalf("out-of-range quad band = %v", pgs)
	}
}

func TestQuadValue(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(2, 2)}
	// v = x + y at corners: 0, 2, 4, 2.
	cases := []struct {
		p    geom.Point
		want float64
	}{
		{geom.Pt(0, 0), 0}, {geom.Pt(2, 0), 2}, {geom.Pt(2, 2), 4},
		{geom.Pt(0, 2), 2}, {geom.Pt(1, 1), 2},
	}
	for i, c := range cases {
		got, ok := QuadValue(r, 0, 2, 4, 2, c.p)
		if !ok {
			t.Fatalf("case %d: outside", i)
		}
		if !almostEq(got, c.want) {
			t.Fatalf("case %d: value = %g, want %g", i, got, c.want)
		}
	}
	if _, ok := QuadValue(r, 0, 2, 4, 2, geom.Pt(5, 5)); ok {
		t.Fatal("outside point accepted")
	}
}

func TestIsoline(t *testing.T) {
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	// w = x: isoline x = 0.5 crosses edges (p0,p1) and (p1,p2).
	seg, ok := Isoline(p0, p1, p2, 0, 1, 0, 0.5)
	if !ok {
		t.Fatalf("no isoline, segment = %v", seg)
	}
	for _, p := range seg {
		if !almostEq(p.X, 0.5) {
			t.Fatalf("isoline point %v not on x=0.5", p)
		}
	}
	// Level outside the range: no line.
	if seg, ok := Isoline(p0, p1, p2, 0, 1, 0, 2); ok {
		t.Fatalf("phantom isoline %v", seg)
	}
}

func TestBandAreaMatchesMonteCarlo(t *testing.T) {
	// Property: the band polygon area approximates the measure of
	// {p : lo <= w(p) <= hi} estimated by sampling.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p0 := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		p1 := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		p2 := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		if math.Abs(geom.Orient(p0, p1, p2)) < 0.5 {
			continue // skip slivers: Monte-Carlo too noisy
		}
		w0, w1, w2 := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		lo := rng.Float64() * 10
		hi := lo + rng.Float64()*5
		pg := TriangleBand(p0, p1, p2, w0, w1, w2, lo, hi)
		got := pg.Area()

		// Monte-Carlo estimate over the triangle.
		const samples = 20000
		in := 0
		for s := 0; s < samples; s++ {
			a, b := rng.Float64(), rng.Float64()
			if a+b > 1 {
				a, b = 1-a, 1-b
			}
			p := p0.Add(p1.Sub(p0).Scale(a)).Add(p2.Sub(p0).Scale(b))
			w, ok := TriangleValue(p0, p1, p2, w0, w1, w2, p)
			if ok && lo <= w && w <= hi {
				in++
			}
		}
		triArea := math.Abs(geom.Orient(p0, p1, p2)) / 2
		want := triArea * float64(in) / samples
		if math.Abs(got-want) > 0.05*triArea+0.02 {
			t.Fatalf("trial %d: band area %g vs Monte-Carlo %g (tri %g)", trial, got, want, triArea)
		}
	}
}

func TestBandWithinTriangleProperty(t *testing.T) {
	// The band region always lies inside the triangle's bounding box and its
	// area never exceeds the triangle's.
	f := func(x0, y0, x1, y1, x2, y2, w0, w1, w2, lo, width float64) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 8) }
		p0, p1, p2 := geom.Pt(clamp(x0), clamp(y0)), geom.Pt(clamp(x1), clamp(y1)), geom.Pt(clamp(x2), clamp(y2))
		cw0, cw1, cw2 := clamp(w0), clamp(w1), clamp(w2)
		l := clamp(lo)
		h := l + clamp(width)
		pg := TriangleBand(p0, p1, p2, cw0, cw1, cw2, l, h)
		if pg == nil {
			return true
		}
		tri := geom.Polygon{p0, p1, p2}
		if pg.Area() > tri.Area()+1e-6 {
			return false
		}
		tb := tri.Bounds()
		pb := pg.Bounds()
		return pb.Min.X >= tb.Min.X-1e-6 && pb.Min.Y >= tb.Min.Y-1e-6 &&
			pb.Max.X <= tb.Max.X+1e-6 && pb.Max.Y <= tb.Max.Y+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
