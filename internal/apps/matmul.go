package apps

import (
	"fmt"
	"math"

	"ap1000plus/internal/core"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/vpp"
)

// MatMulConfig configures the C-language dense matrix multiplication
// C = A x B of S5.2. A, B and C are row-block distributed; the
// classic ring algorithm rotates the B blocks: in each of P steps a
// cell multiplies its A columns against the currently held B block
// and PUTs the block to its ring successor — one bulk PUT of
// (N/P)*N*8 bytes per step with a barrier per step, Table 3's
// MatMul row (64 PUTs of ~76800 bytes, 64 barriers, nothing else).
// The program overlaps communication and computation: the PUT of the
// current block is issued before the multiply that uses it.
type MatMulConfig struct {
	Cells int
	N     int // matrix edge (800 in the paper)
}

// PaperMatMul is the paper's configuration: dense 800 x 800 on 64
// cells.
func PaperMatMul() MatMulConfig { return MatMulConfig{Cells: 64, N: 800} }

// TestMatMul is a laptop-scale configuration.
func TestMatMul() MatMulConfig { return MatMulConfig{Cells: 4, N: 32} }

// NewMatMul builds a MatMul instance.
func NewMatMul(cfg MatMulConfig) (*Instance, error) {
	if cfg.N < cfg.Cells {
		return nil, fmt.Errorf("apps: MatMul: N=%d smaller than cell count %d", cfg.N, cfg.Cells)
	}
	in, err := newInstance("MatMul", cfg.Cells, 64<<20)
	if err != nil {
		return nil, err
	}
	m := in.Machine
	np := m.Cells()
	n := cfg.N
	block := vpp.BlockSize(n, np) // per-cell buffer capacity

	aBuf, err := newPerCellBuf(m, "mm.a", block*n)
	if err != nil {
		return nil, err
	}
	cBuf, err := newPerCellBuf(m, "mm.c", block*n)
	if err != nil {
		return nil, err
	}
	// Double-buffered ring slots for the travelling B block: the
	// block's owner tag travels with the step number parity.
	bBuf0, err := newPerCellBuf(m, "mm.b0", block*n)
	if err != nil {
		return nil, err
	}
	bBuf1, err := newPerCellBuf(m, "mm.b1", block*n)
	if err != nil {
		return nil, err
	}

	aElem := func(i, j int) float64 { return math.Sin(float64(i*7+j)*0.01) + 0.5 }
	bElem := func(i, j int) float64 { return math.Cos(float64(i*3+j)*0.02) - 0.25 }

	in.Program = func(rt *vpp.Runtime) error {
		r := rt.Rank()
		lo, hi := balancedRange(n, np, r)
		mine := hi - lo
		a := aBuf.slice(r)
		c := cBuf.slice(r)
		bufs := [2]*perCellBuf{bBuf0, bBuf1}
		for i := 0; i < mine; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] = aElem(lo+i, j)
				bufs[0].slice(r)[i*n+j] = bElem(lo+i, j)
			}
		}
		for i := range c {
			c[i] = 0
		}
		flag := rt.Cell().Flags.Alloc()
		sflag := rt.Cell().Flags.Alloc()
		rt.Barrier()

		next := (r + 1) % np
		for step := 0; step < np; step++ {
			cur := bufs[step%2]
			nxt := bufs[(step+1)%2]
			// Whose B block do we hold? It started at our rank and
			// walked backward each step.
			owner := (r - step + np*np) % np
			olo, ohi := balancedRange(n, np, owner)
			// Forward the block before computing with it, so the
			// transfer overlaps the multiply (the paper's C apps
			// "overlap communication and computation").
			if step < np-1 {
				if err := rt.Comm.Put(core.Transfer{
					To:     topology.CellID(next),
					Remote: nxt.addr(next, 0), Local: cur.addr(r, 0),
					Size: int64((ohi-olo)*n) * 8, SendFlag: sflag, RecvFlag: flag,
				}); err != nil {
					return err
				}
			}
			// Multiply: C[mine, :] += A[mine, olo:ohi] * Bblock.
			mulBlock(c, a, cur.slice(r), n, mine, olo, ohi)
			rt.Compute(flopUS(float64(2 * mine * (ohi - olo) * n)))
			if step < np-1 {
				// Our send DMA must have captured the outgoing block
				// (send flag: "programs can access the sending area
				// during sending; send_flag is used to protect these
				// areas", S3.1), and the incoming block for the next
				// step must have landed.
				rt.Comm.WaitFlag(sflag, int64(step+1))
				rt.Comm.WaitFlag(flag, int64(step+1))
			}
			// Step barrier (Table 3: one sync per step).
			rt.Barrier()
		}
		return nil
	}
	in.Verify = func() error {
		// Verify a scattering of entries against the direct product.
		for _, probe := range [][2]int{{0, 0}, {1, n / 2}, {n / 3, n - 1}, {n - 1, n - 1}, {n / 2, 1}} {
			i, j := probe[0], probe[1]
			want := 0.0
			for k := 0; k < n; k++ {
				want += aElem(i, k) * bElem(k, j)
			}
			owner := balancedOwner(n, np, i)
			olo, _ := balancedRange(n, np, owner)
			got := cBuf.slice(owner)[(i-olo)*n+j]
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("C[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
		return nil
	}
	return in, nil
}

// mulBlock adds A[0:mine, olo:ohi] x B into C: a and c hold mine rows
// of n, bs holds the ohi-olo rows of the B block. Every element of C
// receives the same rounded multiply-adds, k ascending, as the plain
// i-k-j loop (Go fuses only an explicit math.FMA on amd64), but the
// work is blocked two rows of C by four values of k, so each C value
// is loaded and stored once per four B rows.
func mulBlock(c, a, bs []float64, n, mine, olo, ohi int) {
	i := 0
	for ; i+2 <= mine; i += 2 {
		c0, c1 := c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
		c1 = c1[:len(c0)]
		a0, a1 := a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n]
		k := olo
		for ; k+4 <= ohi; k += 4 {
			b0, b1, b2, b3 := bRows4(bs, n, k-olo)
			x0, x1, x2, x3 := a0[k], a0[k+1], a0[k+2], a0[k+3]
			y0, y1, y2, y3 := a1[k], a1[k+1], a1[k+2], a1[k+3]
			b0, b1, b2, b3 = b0[:len(c0)], b1[:len(c0)], b2[:len(c0)], b3[:len(c0)]
			for j := range c0 {
				s := c0[j]
				s += x0 * b0[j]
				s += x1 * b1[j]
				s += x2 * b2[j]
				s += x3 * b3[j]
				c0[j] = s
				t := c1[j]
				t += y0 * b0[j]
				t += y1 * b1[j]
				t += y2 * b2[j]
				t += y3 * b3[j]
				c1[j] = t
			}
		}
		for ; k < ohi; k++ {
			b0 := bs[(k-olo)*n : (k-olo+1)*n]
			x0, y0 := a0[k], a1[k]
			b0 = b0[:len(c0)]
			for j := range c0 {
				c0[j] += x0 * b0[j]
				c1[j] += y0 * b0[j]
			}
		}
	}
	if i < mine {
		c0, a0 := c[i*n:(i+1)*n], a[i*n:(i+1)*n]
		k := olo
		for ; k+4 <= ohi; k += 4 {
			b0, b1, b2, b3 := bRows4(bs, n, k-olo)
			x0, x1, x2, x3 := a0[k], a0[k+1], a0[k+2], a0[k+3]
			b0, b1, b2, b3 = b0[:len(c0)], b1[:len(c0)], b2[:len(c0)], b3[:len(c0)]
			for j := range c0 {
				s := c0[j]
				s += x0 * b0[j]
				s += x1 * b1[j]
				s += x2 * b2[j]
				s += x3 * b3[j]
				c0[j] = s
			}
		}
		for ; k < ohi; k++ {
			b0 := bs[(k-olo)*n : (k-olo+1)*n]
			x0 := a0[k]
			b0 = b0[:len(c0)]
			for j := range c0 {
				c0[j] += x0 * b0[j]
			}
		}
	}
}

// bRows4 returns rows r..r+3 of the B block bs (rows of n).
func bRows4(bs []float64, n, r int) (b0, b1, b2, b3 []float64) {
	return bs[r*n : (r+1)*n], bs[(r+1)*n : (r+2)*n], bs[(r+2)*n : (r+3)*n], bs[(r+3)*n : (r+4)*n]
}
