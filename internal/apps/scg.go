package apps

import (
	"fmt"
	"math"
	"sync"

	"ap1000plus/internal/core"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/vpp"
)

// SCGConfig configures the C-language SCG application: Poisson's
// equation solved with the scaled (diagonally preconditioned)
// conjugate gradient method on a G x G five-point grid — a sparse
// G^2 x G^2 system (40000 unknowns for G=200 in the paper). The grid
// is row-block distributed. Each iteration halos TWO arrays — the
// search vector p for the A*p product and the solution x for the
// explicit residual recomputation r = b - A*x (residual replacement,
// which keeps long CG runs numerically honest) — sending the upward
// halos with direct PUTs and the downward halos through SEND/RECEIVE,
// plus two scalar global sums. Run to convergence (~446 iterations on
// the paper grid) this lands on Table 3's SCG row: ~878 PUTs and
// SENDs of G*8 = 1600 bytes and ~893 Gops with a single barrier.
type SCGConfig struct {
	Cells   int
	G       int // grid edge; unknowns = G*G (200 -> 40000 in the paper)
	MaxIter int
	Tol     float64
}

// PaperSCG is the paper's configuration: a 40000 x 40000 sparse
// system on 64 cells.
func PaperSCG() SCGConfig { return SCGConfig{Cells: 64, G: 200, MaxIter: 1500, Tol: 2e-11} }

// TestSCG is a laptop-scale configuration.
func TestSCG() SCGConfig { return SCGConfig{Cells: 4, G: 24, MaxIter: 200, Tol: 1e-10} }

// NewSCG builds an SCG instance.
func NewSCG(cfg SCGConfig) (*Instance, error) {
	if cfg.G < cfg.Cells || cfg.MaxIter < 1 {
		return nil, fmt.Errorf("apps: SCG: bad config %+v", cfg)
	}
	in, err := newInstance("SCG", cfg.Cells, 32<<20)
	if err != nil {
		return nil, err
	}
	m := in.Machine
	np := m.Cells()
	g := cfg.G

	// Row-block decomposition of the G x G grid. Every cell stores
	// its rows of p and x plus one halo row above and below each.
	rowsMax := vpp.BlockSize(g, np)
	p, err := newPerCellBuf(m, "scg.p", (rowsMax+2)*g)
	if err != nil {
		return nil, err
	}
	xsol, err := newPerCellBuf(m, "scg.x", (rowsMax+2)*g)
	if err != nil {
		return nil, err
	}
	var finalRes sync.Map

	in.Program = func(rt *vpp.Runtime) error {
		r := rt.Rank()
		lo, hi := balancedRange(g, np, r)
		rows := hi - lo
		ps := p.slice(r)    // [halo-above | rows | halo-below], each row g wide
		xs := xsol.slice(r) // same layout
		rres := make([]float64, rows*g)
		q := make([]float64, rows*g)
		zero := make([]float64, g) // a neighbour row outside the grid
		diag := 4.0

		// b = A * ones, so the solution is all-ones; scaled CG
		// preconditions by 1/diag.
		bv := scgRHS(lo, rows, g, diag)
		copy(rres, bv)
		for i := 0; i < rows; i++ {
			for j := 0; j < g; j++ {
				ps[(1+i)*g+j] = rres[i*g+j] / diag // p = z = M^-1 r
			}
		}
		rhoLocal := 0.0
		for i := 0; i < rows; i++ {
			for j := 0; j < g; j++ {
				rhoLocal += rres[i*g+j] * rres[i*g+j] / diag
			}
		}
		rt.Compute(flopUS(float64(3 * rows * g)))
		rho := rt.GlobalSum(rhoLocal)

		// The single barrier of Table 3's SCG row: after it the loop
		// synchronizes purely through flags and reductions.
		rt.Barrier()

		haloFlag := rt.Cell().Flags.Alloc()
		haloRecv := int64(0)
		// exchange halos a buffer laid out [halo | rows | halo]:
		// upward via PUT, downward via SEND/RECEIVE (the C code's
		// mixed usage that gives SCG equal PUT and SEND counts).
		exchange := func(buf *perCellBuf) error {
			if r < np-1 {
				if err := rt.Comm.Put(core.Transfer{
					To:     topology.CellID(r + 1),
					Remote: buf.addr(r+1, 0), Local: buf.addr(r, rows*g),
					Size: int64(g) * 8, RecvFlag: haloFlag, Ack: true,
				}); err != nil {
					return err
				}
			}
			if r > 0 {
				if err := rt.EP.Send(topology.CellID(r-1), buf.addr(r, g), int64(g)*8, false); err != nil {
					return err
				}
			}
			if r > 0 {
				haloRecv++
				rt.Comm.WaitFlag(haloFlag, haloRecv)
			}
			if r < np-1 {
				if _, err := rt.EP.Recv(topology.CellID(r+1), buf.addr(r, (rows+1)*g), int64(g)*8); err != nil {
					return err
				}
			}
			rt.Comm.AckWait()
			return nil
		}
		iters := 0
		for iter := 0; iter < cfg.MaxIter; iter++ {
			iters = iter + 1
			if err := exchange(p); err != nil {
				return err
			}

			// q = A p over owned rows (5-point stencil; halo rows
			// supply the off-block terms).
			pq := scgApply(q, ps, zero, lo, rows, g, diag)
			rt.Compute(flopUS(float64(11 * rows * g)))
			pq = rt.GlobalSum(pq)
			alpha := rho / pq

			for i := 0; i < rows; i++ {
				for j := 0; j < g; j++ {
					xs[(1+i)*g+j] += alpha * ps[(1+i)*g+j]
				}
			}
			rt.Compute(flopUS(float64(2 * rows * g)))
			// Residual replacement: recompute r = b - A*x explicitly,
			// which needs x's halo — the second PUT/SEND pair of each
			// iteration.
			if err := exchange(xsol); err != nil {
				return err
			}
			rzLocal := scgResidual(rres, xs, bv, zero, lo, rows, g, diag)
			rt.Compute(flopUS(float64(12 * rows * g)))
			rhoNew := rt.GlobalSum(rzLocal)
			if math.Sqrt(rhoNew) < cfg.Tol {
				rho = rhoNew
				break
			}
			beta := rhoNew / rho
			rho = rhoNew
			for i := 0; i < rows; i++ {
				for j := 0; j < g; j++ {
					ps[(1+i)*g+j] = rres[i*g+j]/diag + beta*ps[(1+i)*g+j]
				}
			}
			rt.Compute(flopUS(float64(3 * rows * g)))
		}
		finalRes.Store(r, [2]float64{math.Sqrt(rho), float64(iters)})
		return nil
	}
	in.Verify = func() error {
		var res float64
		count := 0
		finalRes.Range(func(_, v any) bool {
			res = v.([2]float64)[0]
			count++
			return true
		})
		if count != np {
			return fmt.Errorf("missing results: %d of %d", count, np)
		}
		if res > 1e-6 {
			return fmt.Errorf("SCG residual %g did not converge", res)
		}
		// Solution must be ~all-ones.
		for r := 0; r < np; r++ {
			lo, hi := balancedRange(g, np, r)
			xs := xsol.slice(r)
			for i := 0; i < (hi-lo)*g; i++ {
				if math.Abs(xs[g+i]-1) > 1e-3 {
					return fmt.Errorf("SCG x[%d] on cell %d = %g, want 1", i, r, xs[g+i])
				}
			}
		}
		return nil
	}
	return in, nil
}

// scgRHS returns b = A * ones over rows [lo, lo+rows) of the g x g
// grid, for the interior-truncated 5-point operator with diagonal diag.
func scgRHS(lo, rows, g int, diag float64) []float64 {
	bv := make([]float64, rows*g)
	for i := 0; i < rows; i++ {
		for j := 0; j < g; j++ {
			b := diag
			if lo+i > 0 {
				b -= 1
			}
			if lo+i < g-1 {
				b -= 1
			}
			if j > 0 {
				b -= 1
			}
			if j < g-1 {
				b -= 1
			}
			bv[i*g+j] = b
		}
	}
	return bv
}

// scgApply sets q = A p over the owned rows of the halo'd p (see
// stencil5) and returns the local p.q, summed in row-major order.
func scgApply(q, ps, zero []float64, lo, rows, g int, diag float64) float64 {
	stencil5(q, ps, zero, lo, rows, g, diag)
	pq := 0.0
	pm := ps[g : g+len(q)] // the owned rows of p
	for k, v := range q {
		pq += pm[k] * v
	}
	return pq
}

// scgResidual sets rres = b - A x over the owned rows of the halo'd x
// and returns the local rres.rres/diag, summed in row-major order.
func scgResidual(rres, xs, bv, zero []float64, lo, rows, g int, diag float64) float64 {
	stencil5(rres, xs, zero, lo, rows, g, diag)
	rz := 0.0
	bv = bv[:len(rres)]
	for k, ax := range rres {
		rres[k] = bv[k] - ax
		rz += rres[k] * rres[k] / diag
	}
	return rz
}

// stencil5 sets out (rows x g) to the 5-point operator over the owned
// rows of buf, laid out [halo | rows | halo] with rows g wide and the
// first owned row at global row lo of a g x g grid:
//
//	out[i][j] = diag*u[i][j] - u[i-1][j] - u[i+1][j] - u[i][j-1] - u[i][j+1]
//
// subtracted in that order. A neighbour row outside the grid is read
// from zero; a neighbour column outside it is skipped, which is exact
// because x - 0 == x bit for bit.
func stencil5(out, buf, zero []float64, lo, rows, g int, diag float64) {
	for i := 0; i < rows; i++ {
		up, mid, down := buf[i*g:(i+1)*g], buf[(i+1)*g:(i+2)*g], buf[(i+2)*g:(i+3)*g]
		if lo+i == 0 {
			up = zero
		}
		if lo+i == g-1 {
			down = zero
		}
		o := out[i*g : (i+1)*g]
		if g == 1 {
			o[0] = diag*mid[0] - up[0] - down[0]
			continue
		}
		o[0] = diag*mid[0] - up[0] - down[0] - mid[1]
		// Interior columns: every slice below is g-2 long.
		oc, uc, dc := o[1:g-1], up[1:g-1], down[1:g-1]
		ml, mc, mr := mid[:g-2], mid[1:g-1], mid[2:]
		uc, dc, ml, mc, mr = uc[:len(oc)], dc[:len(oc)], ml[:len(oc)], mc[:len(oc)], mr[:len(oc)]
		for j := range oc {
			oc[j] = diag*mc[j] - uc[j] - dc[j] - ml[j] - mr[j]
		}
		o[g-1] = diag*mid[g-1] - up[g-1] - down[g-1] - mid[g-2]
	}
}
