package geom

import "math"

// Grid is a uniform-cell spatial index over a fixed point set. It supports
// the two queries the interference machinery needs:
//
//   - Within(c, r): indices of all points within distance r of c, and
//   - Nearest(i): the nearest other point to point i.
//
// Cells have side length equal to the construction cell size; a radius-r
// query touches ⌈r/cell⌉+1 cells per axis. For the Unit Disk Graphs used
// throughout the paper, cell = 1 makes neighbor enumeration near-linear in
// output size.
type Grid struct {
	pts   []Point
	cell  float64
	minX  float64
	minY  float64
	nx    int
	ny    int
	cells [][]int32 // cells[cy*nx+cx] lists point indices
	// strays records that Add clamped at least one out-of-bounds point
	// into a border cell. Border cells then hold points outside their
	// rectangle, so rectangle-based cell pruning must skip them.
	strays bool
}

// NewGrid indexes pts with the given cell size. The points slice is
// retained (not copied); callers must not mutate it while the grid is in
// use. cell must be positive.
func NewGrid(pts []Point, cell float64) *Grid {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		panic("geom: NewGrid with non-positive cell size")
	}
	g := &Grid{pts: pts, cell: cell}
	if len(pts) == 0 {
		g.nx, g.ny = 1, 1
		g.cells = make([][]int32, 1)
		return g
	}
	b := Bounds(pts)
	g.minX, g.minY = b.Min.X, b.Min.Y
	g.nx = int(math.Floor(b.Width()/cell)) + 1
	g.ny = int(math.Floor(b.Height()/cell)) + 1
	g.cells = make([][]int32, g.nx*g.ny)
	for i, p := range pts {
		c := g.cellOf(p)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Points returns the indexed point slice (shared, not a copy).
func (g *Grid) Points() []Point { return g.pts }

// clampRange clamps the inclusive cell-coordinate range [lo, hi] into
// [0, n-1]. A range lying entirely outside the grid projects onto the
// nearest border line instead of emptying: border cells hold clamped
// out-of-bounds strays, so a query centered beyond the bounding box must
// still scan them (the distance test filters false candidates).
func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	} else if lo >= n {
		lo = n - 1
	}
	if hi >= n {
		hi = n - 1
	} else if hi < 0 {
		hi = 0
	}
	return lo, hi
}

// cellRange returns the inclusive, clamped cell-coordinate ranges a
// radius-r query around c must scan. The reach is r·diskGrow, past the
// r·√diskGrow where InDisk's boundary ends: a point InDisk admits just
// beyond r may sit one cell further out than c ± r.
func (g *Grid) cellRange(c Point, r float64) (cx0, cx1, cy0, cy1 int) {
	reach := r * diskGrow
	cx0, cx1 = clampRange(
		int(math.Floor((c.X-reach-g.minX)/g.cell)),
		int(math.Floor((c.X+reach-g.minX)/g.cell)), g.nx)
	cy0, cy1 = clampRange(
		int(math.Floor((c.Y-reach-g.minY)/g.cell)),
		int(math.Floor((c.Y+reach-g.minY)/g.cell)), g.ny)
	return cx0, cx1, cy0, cy1
}

func (g *Grid) cellOf(p Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

// Within appends to dst the indices of every indexed point p with
// c.Dist(p) <= r (boundary-inclusive, with the same epsilon tolerance as
// InDisk) and returns the extended slice. The center point itself is
// included when it is part of the indexed set and within range — callers
// that need to exclude a self index filter it out.
func (g *Grid) Within(c Point, r float64, dst []int) []int {
	if r < 0 || len(g.pts) == 0 {
		return dst
	}
	r2 := r * r * diskGrow
	cx0, cx1, cy0, cy1 := g.cellRange(c, r)
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			for _, idx := range g.cells[row+cx] {
				if c.Dist2(g.pts[idx]) <= r2 {
					dst = append(dst, int(idx))
				}
			}
		}
	}
	return dst
}

// WithinAnnulus appends to dst the indices of every indexed point p in
// the closed annulus between radii lo < hi around c: p satisfies the
// Within test for hi but not the Within test for lo (so the union of
// WithinAnnulus(c, lo, hi) and Within(c, lo) is exactly Within(c, hi),
// with identical boundary epsilons). A non-positive lo degenerates to
// Within(c, hi) — the inner disk is empty, matching the convention that
// a silent node covers nothing.
//
// This is the query behind O(|annulus|) incremental radius updates:
// cells wholly inside the inner disk or wholly outside the outer disk
// are skipped without touching their points.
func (g *Grid) WithinAnnulus(c Point, lo, hi float64, dst []int) []int {
	if hi < 0 || len(g.pts) == 0 {
		return dst
	}
	hi2 := hi * hi * diskGrow
	lo2 := lo * lo * diskGrow
	cx0, cx1, cy0, cy1 := g.cellRange(c, hi)
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		// Rectangle bounds of this cell row on the y axis.
		ry0 := g.minY + float64(cy)*g.cell
		ry1 := ry0 + g.cell
		for cx := cx0; cx <= cx1; cx++ {
			pts := g.cells[row+cx]
			if len(pts) == 0 {
				continue
			}
			// Cell-level pruning by rectangle distance bounds. Border
			// cells of a grid with strays hold points outside their
			// rectangle, so the bounds don't apply there.
			if !g.strays || (cx > 0 && cx < g.nx-1 && cy > 0 && cy < g.ny-1) {
				rx0 := g.minX + float64(cx)*g.cell
				rx1 := rx0 + g.cell
				nearD2, farD2 := rectDist2(c, rx0, ry0, rx1, ry1)
				if nearD2 > hi2 {
					continue // every point beyond the outer disk
				}
				if lo > 0 && farD2 <= lo*lo {
					// Every point is within lo of c, hence inside the
					// inner disk under the (more permissive) epsilon test.
					continue
				}
			}
			for _, idx := range pts {
				d2 := c.Dist2(g.pts[idx])
				if d2 > hi2 {
					continue
				}
				if lo > 0 && d2 <= lo2 {
					continue // inside both disks
				}
				dst = append(dst, int(idx))
			}
		}
	}
	return dst
}

// rectDist2 returns the squared distances from c to the nearest and
// farthest points of the axis-aligned rectangle [x0,x1]×[y0,y1].
func rectDist2(c Point, x0, y0, x1, y1 float64) (near, far float64) {
	var ndx, ndy float64
	if c.X < x0 {
		ndx = x0 - c.X
	} else if c.X > x1 {
		ndx = c.X - x1
	}
	if c.Y < y0 {
		ndy = y0 - c.Y
	} else if c.Y > y1 {
		ndy = c.Y - y1
	}
	fdx := c.X - x0
	if d := x1 - c.X; d > fdx {
		fdx = d
	}
	fdy := c.Y - y0
	if d := y1 - c.Y; d > fdy {
		fdy = d
	}
	return ndx*ndx + ndy*ndy, fdx*fdx + fdy*fdy
}

// Add appends p to the indexed set and returns its index. Points outside
// the construction bounding box are clamped into border cells; queries
// remain correct (the clamp is monotone, so a clamped point's cell is
// always inside any query's clamped cell range that covers the point),
// at the price of disabling rectangle pruning for border cells.
//
// The grid's point slice may be reallocated by the append; callers
// sharing it must re-fetch it via Points.
func (g *Grid) Add(p Point) int {
	g.pts = append(g.pts, p)
	idx := len(g.pts) - 1
	if p.X < g.minX || p.X > g.minX+float64(g.nx)*g.cell ||
		p.Y < g.minY || p.Y > g.minY+float64(g.ny)*g.cell {
		g.strays = true
	}
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], int32(idx))
	return idx
}

// Move relocates the point at index idx in place: same index, new
// position. Destinations outside the construction bounding box clamp
// into border cells exactly as Add does. Cost is one bucket scan of the
// old cell — there is no index shift, which is what makes it the right
// primitive under sustained waypoint churn (Remove+Add would pay O(n)
// per relocation).
func (g *Grid) Move(idx int, p Point) {
	if p.X < g.minX || p.X > g.minX+float64(g.nx)*g.cell ||
		p.Y < g.minY || p.Y > g.minY+float64(g.ny)*g.cell {
		g.strays = true
	}
	oldC := g.cellOf(g.pts[idx])
	g.pts[idx] = p
	newC := g.cellOf(p)
	if newC == oldC {
		return
	}
	list := g.cells[oldC]
	for i, v := range list {
		if int(v) == idx {
			g.cells[oldC] = append(list[:i], list[i+1:]...)
			break
		}
	}
	g.cells[newC] = append(g.cells[newC], int32(idx))
}

// Remove deletes the point at index idx from the indexed set. Indices
// above idx shift down by one, matching slice semantics. Cost is O(n):
// every stored index above idx is decremented.
func (g *Grid) Remove(idx int) {
	c := g.cellOf(g.pts[idx])
	list := g.cells[c]
	for i, v := range list {
		if int(v) == idx {
			g.cells[c] = append(list[:i], list[i+1:]...)
			break
		}
	}
	for ci := range g.cells {
		for i, v := range g.cells[ci] {
			if int(v) > idx {
				g.cells[ci][i] = v - 1
			}
		}
	}
	g.pts = append(g.pts[:idx], g.pts[idx+1:]...)
}

// CountWithin returns the number of indexed points within distance r of c.
// It is Within without the allocation, used on the hot path of
// interference evaluation.
func (g *Grid) CountWithin(c Point, r float64) int {
	if r < 0 || len(g.pts) == 0 {
		return 0
	}
	r2 := r * r * diskGrow
	cx0, cx1, cy0, cy1 := g.cellRange(c, r)
	n := 0
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			for _, idx := range g.cells[row+cx] {
				if c.Dist2(g.pts[idx]) <= r2 {
					n++
				}
			}
		}
	}
	return n
}

// Nearest returns the index of the nearest indexed point to point i other
// than i itself, together with the distance. It returns (-1, +Inf) when
// the set has fewer than two points. Ties are broken toward the smaller
// index so results are deterministic.
func (g *Grid) Nearest(i int) (int, float64) {
	if len(g.pts) < 2 {
		return -1, math.Inf(1)
	}
	p := g.pts[i]
	best, bestD2 := -1, math.Inf(1)
	// Expand rings of cells outward until the best candidate distance is
	// certainly smaller than anything in an unexplored ring. The center
	// cell is clamped for out-of-bounds points (which Add stores in
	// border cells); the ring lower bound stays valid because clamping
	// projects onto the grid rectangle, which never increases distances
	// to indexed cells.
	pcx := int((p.X - g.minX) / g.cell)
	pcy := int((p.Y - g.minY) / g.cell)
	if pcx < 0 {
		pcx = 0
	} else if pcx >= g.nx {
		pcx = g.nx - 1
	}
	if pcy < 0 {
		pcy = 0
	} else if pcy >= g.ny {
		pcy = g.ny - 1
	}
	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		if best >= 0 {
			// Any point in a cell of ring `ring` is at distance at least
			// (ring-1)*cell from p; stop once that exceeds the best found.
			lo := float64(ring-1) * g.cell
			if lo > 0 && lo*lo > bestD2 {
				break
			}
		}
		scanned := false
		for cy := pcy - ring; cy <= pcy+ring; cy++ {
			if cy < 0 || cy >= g.ny {
				continue
			}
			for cx := pcx - ring; cx <= pcx+ring; cx++ {
				if cx < 0 || cx >= g.nx {
					continue
				}
				// Only the ring's border cells (interior handled earlier).
				if ring > 0 && cx != pcx-ring && cx != pcx+ring && cy != pcy-ring && cy != pcy+ring {
					continue
				}
				scanned = true
				for _, idx := range g.cells[cy*g.nx+cx] {
					j := int(idx)
					if j == i {
						continue
					}
					d2 := p.Dist2(g.pts[j])
					if d2 < bestD2 || (d2 == bestD2 && j < best) {
						best, bestD2 = j, d2
					}
				}
			}
		}
		if !scanned && best >= 0 {
			break
		}
	}
	// Report the distance through Dist so the result is bit-identical to
	// every other distance in the system (Dist uses Hypot, which can
	// differ from √Dist2 by one ulp); callers store it as an edge weight
	// next to Dist-derived weights.
	return best, p.Dist(g.pts[best])
}
