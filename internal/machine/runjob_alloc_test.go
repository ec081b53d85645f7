package machine_test

import (
	"fmt"
	"testing"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// TestRunJobZeroAlloc pins the steady-state cost of a gang-scheduled
// job: once a partition's CPU goroutines are running and its cells'
// flag files have grown, a job that allocates a flag, PUTs 256 B to
// its ring neighbour and waits for the neighbour's PUT allocates
// nothing — no goroutine, no error slice, no flag map. Skipped under
// -race, where sync.Pool drops the pooled payloads at random.
func TestRunJobZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, err := machine.New(machine.Config{Width: 4, Height: 4, MemoryPerCell: 1 << 16, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			n := m.Cells()
			src, dst := make([]mem.Addr, n), make([]mem.Addr, n)
			for id := 0; id < n; id++ {
				c := m.Cell(topology.CellID(id))
				s, _, err := c.AllocBytes("src", 256)
				if err != nil {
					t.Fatal(err)
				}
				d, _, err := c.AllocBytes("dst", 256)
				if err != nil {
					t.Fatal(err)
				}
				src[id], dst[id] = s.Base(), d.Base()
			}
			program := func(c *machine.Cell) error {
				id := int(c.ID())
				rf := c.Flags.Alloc() // 1 on every cell, so it names the neighbour's too
				right := (id + 1) % n
				c.PushUser(msc.Command{
					Op: msc.OpPut, Dst: topology.CellID(right),
					RAddr: dst[right], LAddr: src[id],
					RStride: mem.Contiguous(256), LStride: mem.Contiguous(256),
					RecvFlag: rf,
				})
				c.Flags.Wait(rf, 1)
				return nil
			}
			if err := m.Open(); err != nil {
				t.Fatal(err)
			}
			var jobErr error
			allocs := testing.AllocsPerRun(100, func() {
				if err := m.RunJob(0, program); err != nil && jobErr == nil {
					jobErr = err
				}
			})
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if jobErr != nil {
				t.Fatal(jobErr)
			}
			if allocs != 0 {
				t.Errorf("RunJob allocates %.2f objects per job, want 0", allocs)
			}
		})
	}
}
