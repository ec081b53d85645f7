package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// The oracles below are the apps' compute loops as they were before
// the kernels were blocked and tabled, kept verbatim: every new kernel
// must give every output element the same rounded operations.

// oldMulBlock is MatMul's per-step multiply, C[mine, :] +=
// A[mine, olo:ohi] * Bblock.
func oldMulBlock(c, a, bs []float64, n, mine, olo, ohi int) {
	for i := 0; i < mine; i++ {
		for k := olo; k < ohi; k++ {
			aik := a[i*n+k]
			brow := bs[(k-olo)*n:]
			crow := c[i*n:]
			for j := 0; j < n; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// oldCGMatVec is CG's partial product of columns [lo, hi) into q.
func oldCGMatVec(a cgMatrix, cfg CGConfig, q, p []float64, lo, hi int) float64 {
	n := cfg.N
	flops := 0.0
	for j := lo; j < hi; j++ {
		pj := p[j]
		jlo := j - cfg.Band
		if jlo < 0 {
			jlo = 0
		}
		jhi := j + cfg.Band
		if jhi > n-1 {
			jhi = n - 1
		}
		for i := jlo; i <= jhi; i++ {
			q[i] += a.at(i, j) * pj
		}
		flops += float64(2 * (jhi - jlo + 1))
	}
	return flops
}

// oldSCGApply is SCG's q = A p over the owned rows, returning p.q.
func oldSCGApply(q, ps []float64, lo, rows, g int, diag float64) float64 {
	pAt := func(i, j int) float64 {
		// i in halo coordinates: -1..rows; global row lo+i.
		gr := lo + i
		if gr < 0 || gr >= g || j < 0 || j >= g {
			return 0
		}
		return ps[(1+i)*g+j]
	}
	pq := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < g; j++ {
			v := diag*pAt(i, j) - pAt(i-1, j) - pAt(i+1, j) - pAt(i, j-1) - pAt(i, j+1)
			q[i*g+j] = v
			pq += pAt(i, j) * v
		}
	}
	return pq
}

// oldSCGResidual is SCG's residual replacement r = b - A x, returning
// the local r.r/diag.
func oldSCGResidual(rres, xs []float64, lo, rows, g int, diag float64) float64 {
	bAt := func(gr, gc int) float64 {
		b := diag
		if gr > 0 {
			b -= 1
		}
		if gr < g-1 {
			b -= 1
		}
		if gc > 0 {
			b -= 1
		}
		if gc < g-1 {
			b -= 1
		}
		return b
	}
	xAt := func(i, j int) float64 {
		gr := lo + i
		if gr < 0 || gr >= g || j < 0 || j >= g {
			return 0
		}
		return xs[(1+i)*g+j]
	}
	rzLocal := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < g; j++ {
			ax := diag*xAt(i, j) - xAt(i-1, j) - xAt(i+1, j) - xAt(i, j-1) - xAt(i, j+1)
			rres[i*g+j] = bAt(lo+i, j) - ax
			rzLocal += rres[i*g+j] * rres[i*g+j] / diag
		}
	}
	return rzLocal
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameScalar(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, oracle %v", what, got, want)
	}
}

// TestAppKernelsBitIdentical runs each kernel against its verbatim
// oracle on seeded inputs and requires equal bits everywhere: MatMul
// with odd and even row counts and k-blocks of every length mod 4, CG
// with the band clipped at either end (and at both ends at once), SCG
// on every cell of several decompositions, first and last included,
// so both global-row bounds and both edge columns are met.
func TestAppKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t.Run("MatMul", func(t *testing.T) {
		for _, n := range []int{1, 3, 8, 13, 33} {
			for mine := 1; mine <= 5; mine++ {
				for kb := 0; kb <= min(n, 9); kb++ {
					for _, olo := range []int{0, n - kb} {
						a := randSlice(rng, mine*n)
						bs := randSlice(rng, kb*n)
						want := randSlice(rng, mine*n)
						got := append([]float64(nil), want...)
						oldMulBlock(want, a, bs, n, mine, olo, olo+kb)
						mulBlock(got, a, bs, n, mine, olo, olo+kb)
						sameBits(t, fmt.Sprintf("n=%d mine=%d k=[%d,%d)", n, mine, olo, olo+kb), got, want)
					}
				}
			}
		}
		// One step of the paper's 13 x 800 block.
		n, mine := 800, 13
		a, bs := randSlice(rng, mine*n), randSlice(rng, mine*n)
		want := randSlice(rng, mine*n)
		got := append([]float64(nil), want...)
		oldMulBlock(want, a, bs, n, mine, 400, 413)
		mulBlock(got, a, bs, n, mine, 400, 413)
		sameBits(t, "paper block", got, want)
	})
	t.Run("CG", func(t *testing.T) {
		for _, c := range []struct{ n, band, np int }{
			{10, 3, 1}, {10, 3, 4}, {61, 5, 4}, {96, 3, 4}, {7, 10, 2}, {1400, 27, 16},
		} {
			cfg := CGConfig{N: c.n, Band: c.band}
			a := newCGMatrix(c.n, c.band)
			p := randSlice(rng, c.n)
			for r := 0; r < c.np; r++ {
				lo, hi := blockOf(c.n, c.np, r)
				want := randSlice(rng, c.n)
				got := append([]float64(nil), want...)
				wf := oldCGMatVec(a, cfg, want, p, lo, hi)
				gf := a.mulCols(got, p, lo, hi)
				what := fmt.Sprintf("n=%d band=%d cols [%d,%d)", c.n, c.band, lo, hi)
				sameBits(t, what, got, want)
				if float64(gf) != wf {
					t.Fatalf("%s: flops %d, oracle %v", what, gf, wf)
				}
			}
		}
	})
	t.Run("SCG", func(t *testing.T) {
		const diag = 4.0
		for _, c := range []struct{ g, np int }{{1, 1}, {2, 2}, {3, 1}, {5, 2}, {23, 4}, {24, 4}, {7, 7}, {200, 64}} {
			zero := make([]float64, c.g)
			for r := 0; r < c.np; r++ {
				lo, hi := balancedRange(c.g, c.np, r)
				rows := hi - lo
				what := fmt.Sprintf("g=%d cell %d of %d", c.g, r, c.np)
				// Random halos everywhere: outside the grid they must
				// be ignored.
				buf := randSlice(rng, (rows+2)*c.g)
				want := randSlice(rng, rows*c.g)
				got := append([]float64(nil), want...)
				sameScalar(t, what+": p.q",
					scgApply(got, buf, zero, lo, rows, c.g, diag), oldSCGApply(want, buf, lo, rows, c.g, diag))
				sameBits(t, what+": A p", got, want)
				bv := scgRHS(lo, rows, c.g, diag)
				sameScalar(t, what+": r.r/diag",
					scgResidual(got, buf, bv, zero, lo, rows, c.g, diag), oldSCGResidual(want, buf, lo, rows, c.g, diag))
				sameBits(t, what+": b - A x", got, want)
			}
		}
	})
}

// digestRuns are the whole runs pinned by testdata/kernel_digests.json,
// recorded before the kernels were blocked: the test sizes, sizes
// whose blocks leave the blocked kernels' remainders, and the paper's
// MatMul.
var digestRuns = []struct {
	name, prefix string
	build        func() (*Instance, error)
}{
	{"MatMul/test", "mm.", func() (*Instance, error) { return NewMatMul(TestMatMul()) }},
	{"MatMul/odd", "mm.", func() (*Instance, error) { return NewMatMul(MatMulConfig{Cells: 4, N: 30}) }},
	{"MatMul/paper", "mm.", func() (*Instance, error) { return NewMatMul(PaperMatMul()) }},
	{"CG/test", "cg.", func() (*Instance, error) { return NewCG(TestCG()) }},
	{"CG/odd", "cg.", func() (*Instance, error) {
		return NewCG(CGConfig{Cells: 4, N: 61, Band: 5, Outer: 2, Inner: 7})
	}},
	{"SCG/test", "scg.", func() (*Instance, error) { return NewSCG(TestSCG()) }},
	{"SCG/odd", "scg.", func() (*Instance, error) {
		return NewSCG(SCGConfig{Cells: 4, G: 23, MaxIter: 60, Tol: 1e-10})
	}},
}

// runDigests runs in and returns the FNV-1a 64 digest of each float64
// segment whose name starts with prefix (every rank in rank order,
// each element's bits little-endian) and of the encoded trace.
func runDigests(in *Instance, prefix string) (map[string]string, error) {
	ts, err := in.Run()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	var names []string
	for _, seg := range in.Machine.Cell(0).Mem.Segments() {
		if strings.HasPrefix(seg.Name(), prefix) {
			names = append(names, seg.Name())
		}
	}
	var word [8]byte
	for _, name := range names {
		h := fnv.New64a()
		for r := 0; r < in.Machine.Cells(); r++ {
			for _, seg := range in.Machine.Cell(topology.CellID(r)).Mem.Segments() {
				if seg.Name() != name {
					continue
				}
				for _, v := range seg.Float64Data() {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
			}
		}
		out[name] = fmt.Sprintf("%#016x", h.Sum64())
	}
	h := fnv.New64a()
	if err := trace.Write(h, ts); err != nil {
		return nil, err
	}
	out["trace"] = fmt.Sprintf("%#016x", h.Sum64())
	return out, nil
}

// TestAppRunDigests pins whole MatMul, CG and SCG runs, results and
// traces, against digests recorded before the kernels changed. The
// digests are amd64's: there Go fuses only an explicit math.FMA, while
// arm64, ppc64 and s390x fuse x*y+z on their own and round otherwise.
func TestAppRunDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "kernel_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(digestRuns) {
		t.Errorf("digest file has %d runs, the test runs %d", len(want), len(digestRuns))
	}
	for _, c := range digestRuns {
		t.Run(c.name, func(t *testing.T) {
			in, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := runDigests(in, c.prefix)
			if err != nil {
				t.Fatal(err)
			}
			w := want[c.name]
			if len(got) != len(w) {
				t.Errorf("digests %v, recorded %v", got, w)
			}
			for k, v := range w {
				if got[k] != v {
					t.Errorf("%s digest %s, recorded %s", k, got[k], v)
				}
			}
		})
	}
}

// BenchmarkAppKernels prices each rewritten kernel against its oracle
// at paper size: one MatMul step of the 13 x 800 block, one cell's CG
// mat-vec at PaperCG (88 of 1400 columns, band 27), and one cell's two
// SCG stencils at PaperSCG (3 rows of a 200 x 200 grid). flop/s counts
// the work model's flops, not the host's.
func BenchmarkAppKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	run := func(b *testing.B, flops float64, fn func()) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds(), "flop/s")
	}

	n, mine := 800, 13
	a, bs, c := randSlice(rng, mine*n), randSlice(rng, mine*n), make([]float64, mine*n)
	mmFlops := float64(2 * mine * mine * n)
	b.Run("matmul/old", func(b *testing.B) { run(b, mmFlops, func() { oldMulBlock(c, a, bs, n, mine, 0, mine) }) })
	b.Run("matmul/new", func(b *testing.B) { run(b, mmFlops, func() { mulBlock(c, a, bs, n, mine, 0, mine) }) })

	cfg := PaperCG()
	cg := newCGMatrix(cfg.N, cfg.Band)
	lo, hi := blockOf(cfg.N, cfg.Cells, 1)
	p, q := randSlice(rng, cfg.N), make([]float64, cfg.N)
	cgFlops := float64(cg.mulCols(q, p, lo, hi))
	b.Run("cg/old", func(b *testing.B) { run(b, cgFlops, func() { oldCGMatVec(cg, cfg, q, p, lo, hi) }) })
	b.Run("cg/new", func(b *testing.B) { run(b, cgFlops, func() { cg.mulCols(q, p, lo, hi) }) })

	scg := PaperSCG()
	g := scg.G
	lo, hi = balancedRange(g, scg.Cells, 1)
	rows := hi - lo
	buf, out := randSlice(rng, (rows+2)*g), make([]float64, rows*g)
	zero, bv := make([]float64, g), scgRHS(lo, rows, g, 4)
	scgFlops := float64(23 * rows * g) // 11 + 12 per point, as SCG charges
	b.Run("scg/old", func(b *testing.B) {
		run(b, scgFlops, func() {
			oldSCGApply(out, buf, lo, rows, g, 4)
			oldSCGResidual(out, buf, lo, rows, g, 4)
		})
	})
	b.Run("scg/new", func(b *testing.B) {
		run(b, scgFlops, func() {
			scgApply(out, buf, zero, lo, rows, g, 4)
			scgResidual(out, buf, bv, zero, lo, rows, g, 4)
		})
	})
}
