package apps

import (
	"fmt"
	"math"

	"ap1000plus/internal/core"
	"ap1000plus/internal/vpp"
)

// CGConfig configures the NPB CG kernel: the conjugate gradient
// method on a sparse symmetric positive-definite banded matrix, run
// as Outer power-method rounds of Inner CG steps.
//
// The communication pattern mirrors the paper's VPP Fortran CG
// (S5.4): the matrix is column-block distributed, so A*p is computed
// as per-cell partial result vectors followed by one large VECTOR
// global summation per step (n*8 bytes — 11200 for n=1400); the two
// dot products of each step are SCALAR global sums; and each step
// publishes this cell's slice of the solution vector to the
// collector cell with one acknowledged PUT of (n/P)*8 bytes (700 for
// n=1400 on 16 cells). Table 3's CG row — VGop 390, Gop ~810, PUT
// 390 of 700 bytes, SEND 365.6 (the ring pass inside each vector
// sum) — is regenerated by this structure.
type CGConfig struct {
	Cells int
	N     int // matrix order (1400 in the paper)
	Band  int // half bandwidth; nonzeros/row ~ 2*Band+1
	Outer int
	Inner int
}

// PaperCG is the paper's configuration: n=1400 with ~78k nonzeros
// (band 27 -> 55-56 per row), 15 rounds of 26 CG steps = 390 vector
// sums.
func PaperCG() CGConfig { return CGConfig{Cells: 16, N: 1400, Band: 27, Outer: 15, Inner: 26} }

// TestCG is a laptop-scale configuration.
func TestCG() CGConfig { return CGConfig{Cells: 4, N: 96, Band: 3, Outer: 2, Inner: 10} }

// cgMatrix is the banded SPD test matrix: strong diagonal plus
// off-diagonals decaying with distance, strictly diagonally dominant.
type cgMatrix struct {
	n, band int
	// w is one column of the band: w[band+i-j] = at(i, j) for
	// |i-j| <= band, built once so the mat-vec neither branches nor
	// divides per element.
	w []float64
}

func newCGMatrix(n, band int) cgMatrix {
	a := cgMatrix{n: n, band: band}
	a.w = make([]float64, 2*band+1)
	for t := range a.w {
		a.w[t] = a.at(t, band)
	}
	return a
}

// mulCols adds A[:, lo:hi] * p[lo:hi] into q and returns the flops.
// Each q[i] receives its column terms in ascending j, exactly as the
// element-wise loop over at(i, j) would add them.
func (a cgMatrix) mulCols(q, p []float64, lo, hi int) int {
	flops := 0
	for j := lo; j < hi; j++ {
		pj := p[j]
		jlo := max(j-a.band, 0)
		jhi := min(j+a.band, a.n-1)
		qs := q[jlo : jhi+1]
		ws := a.w[jlo-j+a.band:]
		ws = ws[:len(qs)]
		for i := range qs {
			qs[i] += ws[i] * pj
		}
		flops += 2 * len(qs)
	}
	return flops
}

func (a cgMatrix) at(i, j int) float64 {
	d := i - j
	if d < 0 {
		d = -d
	}
	if d > a.band {
		return 0
	}
	if d == 0 {
		return float64(2*a.band + 2)
	}
	return -1.0 / float64(d)
}

// nnz counts stored nonzeros, for comparison with the paper's 78184.
func (a cgMatrix) nnz() int {
	total := 0
	for i := 0; i < a.n; i++ {
		lo := i - a.band
		if lo < 0 {
			lo = 0
		}
		hi := i + a.band
		if hi > a.n-1 {
			hi = a.n - 1
		}
		total += hi - lo + 1
	}
	return total
}

// NewCG builds a CG instance.
func NewCG(cfg CGConfig) (*Instance, error) {
	if cfg.N < cfg.Cells || cfg.Band < 1 || cfg.Outer < 1 || cfg.Inner < 1 {
		return nil, fmt.Errorf("apps: CG: bad config %+v", cfg)
	}
	in, err := newInstance("CG", cfg.Cells, 16<<20)
	if err != nil {
		return nil, err
	}
	np := in.Machine.Cells()
	n := cfg.N
	a := newCGMatrix(n, cfg.Band)
	block := vpp.BlockSize(n, np)

	// zfull on cell 0 collects every cell's solution slice — the
	// 700-byte PUT per CG step.
	zfull, err := newPerCellBuf(in.Machine, "cg.zfull", block*np)
	if err != nil {
		return nil, err
	}
	// stage holds the outgoing slice on each cell.
	stage, err := newPerCellBuf(in.Machine, "cg.stage", block)
	if err != nil {
		return nil, err
	}

	in.Program = func(rt *vpp.Runtime) error {
		r := rt.Rank()
		lo, hi := blockOf(n, np, r)
		mine := hi - lo

		p := make([]float64, n) // only [lo,hi) is authoritative here
		q := make([]float64, n)
		z := make([]float64, mine)
		rres := make([]float64, mine)
		// b = A * ones, so the exact solution is all-ones.
		for i := 0; i < mine; i++ {
			gi := lo + i
			var b float64
			for j := gi - cfg.Band; j <= gi+cfg.Band; j++ {
				if j >= 0 && j < n {
					b += a.at(gi, j)
				}
			}
			rres[i] = b
		}
		rho := dot(rres, rres)
		rt.Compute(flopUS(float64(2 * mine)))
		rho = rt.GlobalSum(rho)
		copy(p[lo:hi], rres)

		for outer := 0; outer < cfg.Outer; outer++ {
			// Per-round convergence monitor: the power-method shift
			// needs the residual norm and the solution norm globally.
			rn := rt.GlobalSum(dot(rres, rres))
			zn := rt.GlobalSum(dot(z, z))
			_ = rn
			_ = zn
			rt.Barrier()
			for inner := 0; inner < cfg.Inner; inner++ {
				rt.Barrier()
				// Partial product of our columns into the full rows.
				for i := range q {
					q[i] = 0
				}
				rt.Compute(flopUS(float64(a.mulCols(q, p, lo, hi))))
				rt.Barrier()
				// The dominating vector global summation (11200 B).
				if err := rt.GlobalSumVec(q); err != nil {
					return err
				}
				rt.Barrier()
				pq := 0.0
				for i := lo; i < hi; i++ {
					pq += p[i] * q[i]
				}
				rt.Compute(flopUS(float64(2 * mine)))
				pq = rt.GlobalSum(pq)
				rt.Barrier()
				alpha := rho / pq
				for i := 0; i < mine; i++ {
					z[i] += alpha * p[lo+i]
					rres[i] -= alpha * q[lo+i]
				}
				rt.Compute(flopUS(float64(4 * mine)))
				rt.Barrier()
				rho0 := rho
				rr := dot(rres, rres)
				rt.Compute(flopUS(float64(2 * mine)))
				rr = rt.GlobalSum(rr)
				rt.Barrier()
				rho = rr
				beta := rho / rho0
				for i := 0; i < mine; i++ {
					p[lo+i] = rres[i] + beta*p[lo+i]
				}
				rt.Compute(flopUS(float64(2 * mine)))
				rt.Barrier()
				// Publish our z-slice to the collector (700-byte PUT).
				copy(stage.slice(r)[:mine], z)
				if mine > 0 {
					if err := rt.Comm.Put(core.Transfer{
						To: 0, Remote: zfull.addr(0, lo), Local: stage.addr(r, 0),
						Size: int64(mine) * 8, Ack: true,
					}); err != nil {
						return err
					}
				}
				rt.Comm.AckWait()
				rt.Barrier()
			}
		}
		return nil
	}
	in.Verify = func() error {
		// The collected solution on cell 0 must be ~all-ones.
		zf := zfull.slice(0)
		worst := 0.0
		for i := 0; i < n; i++ {
			if d := math.Abs(zf[i] - 1); d > worst {
				worst = d
			}
		}
		if worst > 1e-6 {
			return fmt.Errorf("CG solution error %g (want ~0); nnz=%d", worst, a.nnz())
		}
		return nil
	}
	return in, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// blockOf mirrors vpp's block decomposition for plain slices.
func blockOf(n, np, r int) (lo, hi int) {
	block := vpp.BlockSize(n, np)
	lo = r * block
	hi = lo + block
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
