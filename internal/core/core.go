// Package core implements the paper's primary contribution: value-domain
// indexes for field value queries in continuous field databases.
//
// Four query-processing methods are provided:
//
//   - LinearScan — scan every cell page sequentially and test each cell
//     interval (§2.2.2, the no-index baseline).
//   - I-All — every individual cell interval stored in a 1-D R*-tree; each
//     candidate cell is then fetched with a random page access (§3, the
//     straightforward indexing baseline the paper shows can lose to
//     LinearScan).
//   - I-Hilbert — the proposed method: cells linearized by the Hilbert value
//     of their centers, grouped into subfields by the cost model of §3.1.2,
//     subfield intervals indexed in a 1-D R*-tree whose leaves point at the
//     contiguous cell run of each subfield (§3).
//   - I-Quad / I-Threshold — the Interval Quadtree of the authors' earlier
//     work and a fixed-threshold run grouping, for the paper's motivating
//     comparison and ablations.
//
// All methods share one storage substrate (internal/storage): cells live in
// a slotted heap file, index nodes in R*-tree pages, and every page access
// during a query is charged to a simulated disk clock so the methods are
// compared under the paper's cost model (4 KiB pages, sequential vs random
// access).
package core

import (
	"context"
	"fmt"

	"fielddb/internal/band"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// Method identifies a query-processing strategy.
type Method string

// The methods evaluated in the paper plus the ablation strategies.
const (
	MethodLinearScan Method = "LinearScan"
	MethodIAll       Method = "I-All"
	MethodIHilbert   Method = "I-Hilbert"
	MethodIQuad      Method = "I-Quad"
	MethodIThresh    Method = "I-Threshold"
)

// Result carries the outcome of one field value query.
type Result struct {
	// Query is the value interval that was asked.
	Query geom.Interval
	// CandidateGroups is the number of subfields the filter step selected
	// (the number of candidate cell intervals for I-All, 0 for LinearScan).
	CandidateGroups int
	// CellsFetched is the number of cell intervals tested during the
	// estimation step (every cell for LinearScan). A sidecar-served filter
	// tests intervals from the packed columns instead of cell records; the
	// count is the same either way.
	CellsFetched int
	// CellsMatched is the number of fetched cells whose interval
	// intersects the query — the candidate cells of §2.2.2.
	CellsMatched int
	// Regions are the exact answer polygons computed by inverse
	// interpolation (empty for zero-width queries).
	Regions []geom.Polygon
	// Isolines are the answer segments of an exact (zero-width) query.
	Isolines [][2]geom.Point
	// Area is the total area of Regions.
	Area float64
	// MatchedCellArea is the total planar area of the matched cells
	// themselves (not the clipped band polygons) — the exact quantity the
	// aggregate tier's area summaries approximate, accumulated here so an
	// exact fallback can answer AggregateResult.Area from any method.
	MatchedCellArea float64
	// IO is the page-access activity of this query, including the
	// simulated disk time — the quantity the paper's figures plot.
	IO storage.Stats
}

// IndexStats describes a built index.
type IndexStats struct {
	Method       Method
	Cells        int
	CellPages    int // heap-file pages holding cell records
	IndexPages   int // R*-tree pages (0 for LinearScan)
	SidecarPages int // packed interval-sidecar pages (0 when disabled)
	Groups       int // subfields (cells for I-All, 0 for LinearScan)
	TreeHeight   int
}

// String implements fmt.Stringer.
func (s IndexStats) String() string {
	return fmt.Sprintf("%s: cells=%d cellPages=%d indexPages=%d sidecarPages=%d groups=%d height=%d",
		s.Method, s.Cells, s.CellPages, s.IndexPages, s.SidecarPages, s.Groups, s.TreeHeight)
}

// Index answers field value queries over one field.
type Index interface {
	// Method returns the strategy this index implements.
	Method() Method
	// Query runs the filter + estimation pipeline for the value interval q
	// and returns the exact answer regions along with cost accounting.
	Query(q geom.Interval) (*Result, error)
	// Stats describes the built index.
	Stats() IndexStats
}

// estimateCell runs the shared estimation logic for one fetched cell:
// testing its interval against the query and, on a match, computing the
// exact answer geometry by inverse interpolation.
func estimateCell(res *Result, c *field.Cell, q geom.Interval) {
	res.CellsFetched++
	if !c.Interval().Intersects(q) {
		return
	}
	estimateMatched(res, c, q)
}

// estimateRecord is estimateCell on an encoded record: the interval test
// runs on the partial decode (value min/max only), and the full cell — the
// vertex geometry the Band/Isolines step needs — is decoded into scratch
// only for cells that survive it. Counters and answer geometry are
// identical to decoding every record eagerly.
func estimateRecord(res *Result, rec []byte, scratch *field.Cell, q geom.Interval) error {
	iv, err := field.CellIntervalFromRecord(rec)
	if err != nil {
		return err
	}
	res.CellsFetched++
	if !iv.Intersects(q) {
		return nil
	}
	if err := field.DecodeCell(rec, scratch); err != nil {
		return err
	}
	estimateMatched(res, scratch, q)
	return nil
}

// estimateMatched computes the exact answer geometry of one cell whose
// interval already matched the query. Each triangle is clipped in stack
// scratch and only kept polygons are copied out, into the region slab, so
// refinement allocates nothing per cell.
func estimateMatched(res *Result, c *field.Cell, q geom.Interval) {
	res.CellsMatched++
	res.MatchedCellArea += c.Area()
	if q.Length() == 0 {
		res.Isolines = field.AppendIsolines(res.Isolines, c, q.Lo)
		return
	}
	var s [2]band.Scratch
	pgs, n := field.BandInto(&s, c, q.Lo, q.Hi)
	for _, pg := range pgs[:n] {
		// Boundary cells can contribute degenerate slivers (the band
		// touches the cell only along an edge); they carry no area and
		// break downstream convex clipping, so drop them.
		a := pg.Area()
		if a <= 1e-12 {
			continue
		}
		res.Regions = appendRegion(res.Regions, pg)
		res.Area += a
	}
}

// Region slab chunk bounds, in points. A chunk is sized to the points kept
// so far (about four per region), so chunks grow geometrically from the
// minimum — a query with a handful of regions pays for a small chunk, a
// large one for few allocations.
const (
	minSlabChunk = 64
	maxSlabChunk = 4096
)

// appendRegion appends a copy of pg to regions. The copies live in chunked
// point slabs: every region is a full-slice-expression sub-slice s[a:b:b] of
// its chunk, except the newest, whose spare capacity is the chunk's free
// tail — the next region is carved from it, and the newest is capped to its
// length at that moment. Appending to any region therefore reallocates it
// or, for the newest, writes into the free tail no other region uses; a
// region never overwrites its neighbour. Keeping the free tail in the last
// region rather than in a handle on Result leaves Result's shape, and so
// the equality of solo, batched and parallel answers, untouched.
func appendRegion(regions []geom.Polygon, pg geom.Polygon) []geom.Polygon {
	var free geom.Polygon
	if regions == nil {
		// Size the header slice to the first chunk's ~16 regions rather
		// than growing it 1, 2, 4, 8: parallel refinement starts one
		// Result per cell run.
		regions = make([]geom.Polygon, 0, minSlabChunk/4)
	} else if n := len(regions); n > 0 {
		last := regions[n-1]
		free = last[len(last):cap(last)]
		regions[n-1] = last[:len(last):len(last)]
	}
	if len(free) < len(pg) {
		free = make(geom.Polygon, max(min(4*len(regions), maxSlabChunk), minSlabChunk, len(pg)))
	}
	return append(regions, append(free[:0], pg...))
}

// writeCellsStride is how many cells construction writes between
// cancellation polls.
const writeCellsStride = 512

// writeCells appends the cells of f to a fresh heap file on pager in the
// order given by ids, returning the heap file, the RID of every cell in
// write order, and each cell's planar area in the same order (the aggregate
// tier's fit weights — value updates never move vertices, so the areas stay
// valid for the index's lifetime). A non-empty codec name also builds the
// columnar interval sidecar with that codec: each cell's (min, max) — taken
// by partial decode from the very record bytes just appended, so the sidecar
// is byte-identical to CellIntervalFromRecord on the stored records — is
// buffered and written to contiguous packed pages right after the heap
// flush. ctx is polled every writeCellsStride cells so a canceled build
// stops without writing the rest of the field.
func writeCells(ctx context.Context, f field.Field, pager *storage.Pager, ids []field.CellID, codec string) (*storage.HeapFile, []storage.RID, *storage.IntervalSidecar, []float64, error) {
	sidecar := codec != ""
	heap := storage.NewHeapFile(pager)
	rids := make([]storage.RID, len(ids))
	areas := make([]float64, len(ids))
	var lo, hi []float64
	if sidecar {
		lo = make([]float64, len(ids))
		hi = make([]float64, len(ids))
	}
	var c field.Cell
	var buf []byte
	for i, id := range ids {
		if i%writeCellsStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		f.Cell(id, &c)
		if err := c.Validate(); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: %w", err)
		}
		buf = field.AppendCell(buf[:0], &c)
		rid, err := heap.Append(buf)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: storing cell %d: %w", id, err)
		}
		rids[i] = rid
		areas[i] = c.Area()
		if sidecar {
			iv, err := field.CellIntervalFromRecord(buf)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("core: sidecar interval for cell %d: %w", id, err)
			}
			lo[i], hi[i] = iv.Lo, iv.Hi
		}
	}
	if err := heap.Flush(); err != nil {
		return nil, nil, nil, nil, err
	}
	var sc *storage.IntervalSidecar
	if sidecar {
		var err error
		sc, err = storage.BuildIntervalSidecarWith(pager, lo, hi, codec)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	return heap, rids, sc, areas, nil
}

// resolveSidecarCodec maps build-option fields to writeCells' codec
// parameter: disabled becomes the empty string, an unset codec falls back to
// the raw legacy layout (keeping existing builds byte-identical), and an
// unknown name is surfaced as a build error by writeCells.
func resolveSidecarCodec(noSidecar bool, codec string) string {
	if noSidecar {
		return ""
	}
	if codec == "" {
		return storage.SidecarCodecRaw
	}
	return codec
}

// identityOrder returns the cell ids of f in natural order.
func identityOrder(f field.Field) []field.CellID {
	ids := make([]field.CellID, f.NumCells())
	for i := range ids {
		ids[i] = field.CellID(i)
	}
	return ids
}
