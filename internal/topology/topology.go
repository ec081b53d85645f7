// Package topology models the AP1000+ cell arrangement: a
// two-dimensional torus (the T-net wiring) of 4 to 4096 cells, with
// the static dimension-order routing the T-net uses, plus the cell
// groups over which VPP Fortran performs group barriers and group
// reductions.
package topology

import (
	"fmt"
	"sort"
)

// CellID identifies a processing element. Cells are numbered in
// row-major order: id = y*W + x.
type CellID int

// HostID is the pseudo-cell identifier used for the host workstation
// on the B-net; it is never a valid T-net destination.
const HostID CellID = -1

// Torus describes a W x H two-dimensional torus of cells.
type Torus struct {
	w, h int
}

// MaxCells is the largest simulated configuration. The shipped
// AP1000+ topped out at 1024 cells; the simulator admits 4x that so
// weak-scaling runs can explore where in-network combining and
// aggregation pay off (TestNeighborRingAtScale in internal/machine
// runs a 4096-cell machine).
const MaxCells = 4096

// NewTorus builds a torus with the given dimensions. Configurations
// of 4 to MaxCells cells are supported; dimensions outside that range
// (or non-positive) are rejected.
func NewTorus(w, h int) (*Torus, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("topology: non-positive dimensions %dx%d", w, h)
	}
	n := w * h
	if n < 4 || n > MaxCells {
		return nil, fmt.Errorf("topology: %d cells outside the simulator range [4,%d]", n, MaxCells)
	}
	return &Torus{w: w, h: h}, nil
}

// MustTorus is NewTorus for static configurations; it panics on error.
func MustTorus(w, h int) *Torus {
	t, err := NewTorus(w, h)
	if err != nil {
		panic(err)
	}
	return t
}

// SquarishTorus builds the most square torus with exactly n cells,
// mirroring how AP1000 cabinets were configured (e.g. 64 cells = 8x8).
func SquarishTorus(n int) (*Torus, error) {
	if n < 4 || n > MaxCells {
		return nil, fmt.Errorf("topology: %d cells outside [4,%d]", n, MaxCells)
	}
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return NewTorus(n/best, best)
}

// Width reports the X dimension.
func (t *Torus) Width() int { return t.w }

// Height reports the Y dimension.
func (t *Torus) Height() int { return t.h }

// Cells reports the number of cells.
func (t *Torus) Cells() int { return t.w * t.h }

// Valid reports whether id names a cell of this torus.
func (t *Torus) Valid(id CellID) bool { return id >= 0 && int(id) < t.Cells() }

// Coord maps a cell ID to torus coordinates.
func (t *Torus) Coord(id CellID) (x, y int) {
	return int(id) % t.w, int(id) / t.w
}

// ID maps coordinates to the cell ID, wrapping around the torus so
// that negative and overflowing coordinates are legal.
func (t *Torus) ID(x, y int) CellID {
	x = mod(x, t.w)
	y = mod(y, t.h)
	return CellID(y*t.w + x)
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// hopDist is the signed shortest displacement from a to b on a ring of
// size m (ties broken toward positive direction, matching the T-net's
// static routing tables).
func hopDist(a, b, m int) int {
	d := mod(b-a, m)
	if d > m/2 || (d == m-d && d != 0 && m%2 == 0 && d > m/2) {
		return d - m
	}
	if d*2 > m {
		return d - m
	}
	return d
}

// Distance reports the routing distance in hops between two cells
// using shortest paths in each torus dimension. This is the
// "communication distance" statistic MLSim reports.
func (t *Torus) Distance(a, b CellID) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx := hopDist(ax, bx, t.w)
	dy := hopDist(ay, by, t.h)
	return abs(dx) + abs(dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Route returns the sequence of cells a message visits travelling from
// src to dst under dimension-order (X then Y) static routing,
// excluding src and including dst. The T-net routes statically, which
// is why messages between a given pair of cells arrive in order — the
// property §4.1 exploits for the GET-as-acknowledge trick.
func (t *Torus) Route(src, dst CellID) []CellID {
	if !t.Valid(src) || !t.Valid(dst) {
		panic(fmt.Sprintf("topology: route %d->%d outside %dx%d torus", src, dst, t.w, t.h))
	}
	var path []CellID
	x, y := t.Coord(src)
	dx, dy := t.Coord(dst)
	stepX := sign(hopDist(x, dx, t.w))
	for x != dx {
		x = mod(x+stepX, t.w)
		path = append(path, t.ID(x, y))
	}
	stepY := sign(hopDist(y, dy, t.h))
	for y != dy {
		y = mod(y+stepY, t.h)
		path = append(path, t.ID(x, y))
	}
	return path
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// Group is an ordered set of cells over which a group barrier or a
// group reduction runs (§2.3 of the paper: index partitions decompose
// arrays and DO loops over groups of nodes).
type Group struct {
	name    string
	members []CellID
	rank    map[CellID]int
}

// NewGroup builds a group from the given members. Duplicates are
// rejected; members are kept in the given order (rank order).
func NewGroup(name string, members []CellID) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("topology: group %q has no members", name)
	}
	g := &Group{name: name, members: append([]CellID(nil), members...), rank: make(map[CellID]int, len(members))}
	for i, m := range g.members {
		if _, dup := g.rank[m]; dup {
			return nil, fmt.Errorf("topology: group %q has duplicate member %d", name, m)
		}
		g.rank[m] = i
	}
	return g, nil
}

// AllCells returns the group containing every cell of the torus, the
// group the S-net hardware barrier serves.
func AllCells(t *Torus) *Group {
	members := make([]CellID, t.Cells())
	for i := range members {
		members[i] = CellID(i)
	}
	g, _ := NewGroup("all", members)
	return g
}

// Row returns the group of cells in torus row y, a typical index
// partition for one-dimensionally decomposed arrays.
func Row(t *Torus, y int) *Group {
	members := make([]CellID, t.w)
	for x := 0; x < t.w; x++ {
		members[x] = t.ID(x, y)
	}
	g, _ := NewGroup(fmt.Sprintf("row%d", y), members)
	return g
}

// Column returns the group of cells in torus column x.
func Column(t *Torus, x int) *Group {
	members := make([]CellID, t.h)
	for y := 0; y < t.h; y++ {
		members[y] = t.ID(x, y)
	}
	g, _ := NewGroup(fmt.Sprintf("col%d", x), members)
	return g
}

// Name reports the group's name.
func (g *Group) Name() string { return g.name }

// Size reports the number of members.
func (g *Group) Size() int { return len(g.members) }

// Members returns the members in rank order. The caller must not
// mutate the returned slice.
func (g *Group) Members() []CellID { return g.members }

// Rank reports the position of id within the group and whether id is
// a member.
func (g *Group) Rank(id CellID) (int, bool) {
	r, ok := g.rank[id]
	return r, ok
}

// Contains reports whether id is a member.
func (g *Group) Contains(id CellID) bool {
	_, ok := g.rank[id]
	return ok
}

// Root returns the rank-0 member, the root of reduction trees.
func (g *Group) Root() CellID { return g.members[0] }

// BinaryTreeParent reports the parent of id in the binary reduction
// tree over the group (rank arithmetic: parent(r) = (r-1)/2). The
// root's parent is itself. §4.5: "if sending addresses are previously
// calculated using algorithms such as binary tree ... global reduction
// can be achieved only by repeating store, execute, and load".
func (g *Group) BinaryTreeParent(id CellID) CellID {
	r, ok := g.rank[id]
	if !ok {
		panic(fmt.Sprintf("topology: %d not in group %q", id, g.name))
	}
	if r == 0 {
		return id
	}
	return g.members[(r-1)/2]
}

// BinaryTreeChildren reports the children of id in the binary
// reduction tree over the group.
func (g *Group) BinaryTreeChildren(id CellID) []CellID {
	r, ok := g.rank[id]
	if !ok {
		panic(fmt.Sprintf("topology: %d not in group %q", id, g.name))
	}
	var kids []CellID
	for _, c := range []int{2*r + 1, 2*r + 2} {
		if c < len(g.members) {
			kids = append(kids, g.members[c])
		}
	}
	return kids
}

// RingNext reports the successor of id on the group ring, used by the
// vector global reductions that circulate partial vectors through
// ring buffers (§4.5).
func (g *Group) RingNext(id CellID) CellID {
	r, ok := g.rank[id]
	if !ok {
		panic(fmt.Sprintf("topology: %d not in group %q", id, g.name))
	}
	return g.members[(r+1)%len(g.members)]
}

// Partition splits the torus's cells into k contiguous groups of
// near-equal size in ID order, modelling a one-dimensional index
// partition across cell groups.
func Partition(t *Torus, k int) ([]*Group, error) {
	n := t.Cells()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("topology: cannot partition %d cells into %d groups", n, k)
	}
	groups := make([]*Group, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		members := make([]CellID, 0, hi-lo)
		for c := lo; c < hi; c++ {
			members = append(members, CellID(c))
		}
		g, err := NewGroup(fmt.Sprintf("part%d/%d", i, k), members)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// SortedCopy returns the group members in ascending ID order; handy
// for deterministic iteration in tests and statistics.
func (g *Group) SortedCopy() []CellID {
	s := append([]CellID(nil), g.members...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
