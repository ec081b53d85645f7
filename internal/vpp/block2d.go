package vpp

import (
	"fmt"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// Block2D is a global two-dimensional array decomposed in BOTH
// dimensions over the torus-shaped process grid — the "larger
// dimensional partitioning" §5.4 names as the case where group
// barriers and group reductions become necessary. The cell at torus
// coordinate (x, y) owns the row block y and the column block x, with
// an overlap border of w elements on every side. Boundary ROWS are
// contiguous in the row-major local layout (plain PUT); boundary
// COLUMNS are strided (stride PUT).
type Block2D struct {
	name       string
	rows, cols int
	w          int
	gw, gh     int // process grid = torus dimensions
	torus      *topology.Torus
	segs       []*mem.Segment
	locals     [][]float64
	width      int // local row length = colBlock + 2w
	height     int // local rows = rowBlock + 2w
	// rowGroups[y] and colGroups[x] are the machine group IDs for
	// group collectives along the two partition dimensions.
	rowGroups []trace.GroupID
	colGroups []trace.GroupID
}

// NewBlock2D allocates the array on every cell and registers the row
// and column groups of the process grid.
func NewBlock2D(m *machine.Machine, name string, rows, cols, overlap int) (*Block2D, error) {
	if rows <= 0 || cols <= 0 || overlap < 0 {
		return nil, fmt.Errorf("vpp: block2d %q: bad shape %dx%d overlap %d", name, rows, cols, overlap)
	}
	tor := m.Torus()
	a := &Block2D{
		name: name, rows: rows, cols: cols, w: overlap,
		gw: tor.Width(), gh: tor.Height(), torus: tor,
	}
	rowBlock := BlockSize(rows, a.gh)
	colBlock := BlockSize(cols, a.gw)
	a.height = rowBlock + 2*overlap
	a.width = colBlock + 2*overlap
	for r := 0; r < m.Cells(); r++ {
		seg, local, err := m.Cell(topology.CellID(r)).AllocFloat64(name, a.height*a.width)
		if err != nil {
			return nil, fmt.Errorf("vpp: block2d %q: %w", name, err)
		}
		a.segs = append(a.segs, seg)
		a.locals = append(a.locals, local)
	}
	for y := 0; y < a.gh; y++ {
		a.rowGroups = append(a.rowGroups, m.DefineGroup(topology.Row(tor, y)))
	}
	for x := 0; x < a.gw; x++ {
		a.colGroups = append(a.colGroups, m.DefineGroup(topology.Column(tor, x)))
	}
	return a, nil
}

// Shape reports the global dimensions.
func (a *Block2D) Shape() (rows, cols int) { return a.rows, a.cols }

// OwnedRows reports the global row range [lo, hi) of rank r.
func (a *Block2D) OwnedRows(r int) (lo, hi int) {
	_, y := a.torus.Coord(topology.CellID(r))
	return blockRange(a.rows, a.gh, y)
}

// OwnedCols reports the global column range [lo, hi) of rank r.
func (a *Block2D) OwnedCols(r int) (lo, hi int) {
	x, _ := a.torus.Coord(topology.CellID(r))
	return blockRange(a.cols, a.gw, x)
}

// RowGroup returns the group ID of rank r's process-grid row (cells
// sharing the same row blocks).
func (a *Block2D) RowGroup(r int) trace.GroupID {
	_, y := a.torus.Coord(topology.CellID(r))
	return a.rowGroups[y]
}

// ColGroup returns the group ID of rank r's process-grid column.
func (a *Block2D) ColGroup(r int) trace.GroupID {
	x, _ := a.torus.Coord(topology.CellID(r))
	return a.colGroups[x]
}

// localIndex maps global (row, col) to rank r's local slice index;
// valid for owned elements and in-range shadow cells.
func (a *Block2D) localIndex(r, row, col int) int {
	rlo, _ := a.OwnedRows(r)
	clo, _ := a.OwnedCols(r)
	return (a.w+row-rlo)*a.width + (a.w + col - clo)
}

// At reads global element (row, col) from rank r's local copy
// (owned or shadow).
func (a *Block2D) At(r, row, col int) float64 {
	return a.locals[r][a.localIndex(r, row, col)]
}

// Set writes global element (row, col) on its owner's copy via rank
// r's local storage.
func (a *Block2D) Set(r, row, col int, v float64) {
	a.locals[r][a.localIndex(r, row, col)] = v
}

// addr returns the address of rank r's local element for global
// (row, col).
func (a *Block2D) addr(r, row, col int) mem.Addr {
	return a.segs[r].Base() + mem.Addr(a.localIndex(r, row, col)*8)
}

// Local returns rank r's raw local storage (height x width,
// row-major, shadows included).
func (a *Block2D) Local(r int) []float64 { return a.locals[r] }

// LocalWidth reports the local row length including shadows.
func (a *Block2D) LocalWidth() int { return a.width }

// neighborRank returns the rank at the torus coordinate offset
// (dx, dy) from r WITHOUT wraparound: arrays are not periodic, so
// edges have no neighbour (ok=false).
func (a *Block2D) neighborRank(r, dx, dy int) (int, bool) {
	x, y := a.torus.Coord(topology.CellID(r))
	nx, ny := x+dx, y+dy
	if nx < 0 || nx >= a.gw || ny < 0 || ny >= a.gh {
		return 0, false
	}
	return int(a.torus.ID(nx, ny)), true
}

// OverlapFixBlock2D refreshes all four shadow borders of a
// two-dimensionally partitioned array, collectively. North/south
// boundary rows move as contiguous PUTs; east/west boundary columns
// as stride PUTs. Completion uses Ack & Barrier with GROUP barriers:
// the row exchange synchronizes each process-grid column group, the
// column exchange each row group — no all-cells barrier is needed,
// which is exactly why §2.3 demands group synchronization from the
// architecture.
func (rt *Runtime) OverlapFixBlock2D(a *Block2D) error {
	if a.w == 0 {
		return nil
	}
	r := rt.Rank()
	rlo, rhi := a.OwnedRows(r)
	clo, chi := a.OwnedCols(r)
	ownRows, ownCols := rhi-rlo, chi-clo
	if ownRows <= 0 || ownCols <= 0 {
		return fmt.Errorf("vpp: block2d %q: rank %d owns nothing", a.name, r)
	}
	w := a.w

	// North/south: our first/last w owned rows into the vertical
	// neighbours' facing shadows (contiguous PUT per row; batched, the
	// per-row PUTs to one neighbour coalesce into a single stride PUT
	// because consecutive rows sit width*8 apart on both ends).
	is := rt.issuer()
	nr := minInt(w, ownRows)
	for k := 0; k < nr; k++ {
		if up, ok := a.neighborRank(r, 0, -1); ok {
			// Our top row rlo+k lands in up's bottom shadow.
			if err := is.put(core.Transfer{
				To:     topology.CellID(up),
				Remote: a.addr(up, rlo+k, clo), Local: a.addr(r, rlo+k, clo),
				Size: int64(ownCols) * 8, Ack: true,
			}); err != nil {
				return err
			}
		}
		if down, ok := a.neighborRank(r, 0, +1); ok {
			// Ascending row order so successive rows extend one stride.
			row := rhi - nr + k
			if err := is.put(core.Transfer{
				To:     topology.CellID(down),
				Remote: a.addr(down, row, clo), Local: a.addr(r, row, clo),
				Size: int64(ownCols) * 8, Ack: true,
			}); err != nil {
				return err
			}
		}
	}
	if err := is.flush(); err != nil {
		return err
	}
	rt.Comm.AckWait()
	rt.Sync.Barrier(a.ColGroup(r)) // vertical exchange: column group

	// East/west: our first/last w owned columns (strided) into the
	// horizontal neighbours' facing shadows (batched; adjacent columns
	// to one neighbour interleave into a single wider stride PUT).
	colPat := mem.Stride{ItemSize: 8, Count: int64(ownRows), Skip: int64((a.width - 1) * 8)}
	is = rt.issuer()
	nc := minInt(w, ownCols)
	for k := 0; k < nc; k++ {
		if left, ok := a.neighborRank(r, -1, 0); ok {
			col := clo + k
			if err := is.putStride(core.Transfer{
				To:     topology.CellID(left),
				Remote: a.addr(left, rlo, col), Local: a.addr(r, rlo, col),
				Ack: true,
			}, colPat, colPat); err != nil {
				return err
			}
		}
		if right, ok := a.neighborRank(r, +1, 0); ok {
			// Ascending column order so adjacent columns interleave.
			col := chi - nc + k
			if err := is.putStride(core.Transfer{
				To:     topology.CellID(right),
				Remote: a.addr(right, rlo, col), Local: a.addr(r, rlo, col),
				Ack: true,
			}, colPat, colPat); err != nil {
				return err
			}
		}
	}
	if err := is.flush(); err != nil {
		return err
	}
	rt.Comm.AckWait()
	rt.Sync.Barrier(a.RowGroup(r)) // horizontal exchange: row group
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
