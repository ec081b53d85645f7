package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/tenancy"
	"ap1000plus/internal/topology"
)

// tenancyRow is one line of the BENCH_tenancy.json report: one
// tenant's latency distribution at one partition count, plus the
// configuration's aggregate throughput (repeated on every row of the
// configuration).
type tenancyRow struct {
	Partitions int
	Tenant     int
	Jobs       int
	P50Ms      float64 // median submit-to-done sojourn
	P99Ms      float64
	JobsPerSec float64 // aggregate over all tenants at this partition count
}

// runTenancy is the sustained-traffic harness: one machine is split
// into k partitions, k tenants share its gang scheduler, and an
// open-loop Poisson stream of small ring-PUT jobs (job i belongs to
// tenant i mod k) replays against it. Per-tenant p50/p99 sojourn
// latency and aggregate jobs/sec are reported per partition count —
// the queueing curve a one-shot benchmark cannot show.
func runTenancy(w io.Writer, quick bool, jsonPath string) error {
	cells, totalJobs, rate := 64, 1600, 8000.0
	counts := []int{2, 4, 8}
	if quick {
		cells, totalJobs, rate = 16, 160, 4000.0
		counts = []int{2, 4}
	}
	var rows []tenancyRow
	for _, k := range counts {
		fmt.Fprintf(os.Stderr, "running tenancy: %d tenants on %d cells, %d jobs...\n", k, cells, totalJobs)
		r, err := tenancyConfig(cells, k, totalJobs, rate)
		if err != nil {
			return fmt.Errorf("tenancy/%d: %w", k, err)
		}
		rows = append(rows, r...)
	}

	fmt.Fprintln(w, "Multi-tenant gang scheduling: open-loop job stream, per-tenant sojourn latency:")
	fmt.Fprintf(w, "  %10s %7s %6s %10s %10s %12s\n",
		"partitions", "tenant", "jobs", "p50-ms", "p99-ms", "jobs/sec")
	for _, r := range rows {
		fmt.Fprintf(w, "  %10d %7d %6d %10.3f %10.3f %12.0f\n",
			r.Partitions, r.Tenant, r.Jobs, r.P50Ms, r.P99Ms, r.JobsPerSec)
	}
	fmt.Fprintln(w)

	return writeJSON(jsonPath, "tenancy report", rows)
}

// tenancyConfig runs one partition count: k tenants, totalJobs jobs,
// exponential inter-arrival gaps at the given aggregate rate.
func tenancyConfig(cells, k, totalJobs int, rate float64) ([]tenancyRow, error) {
	tor, err := topology.SquarishTorus(cells)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{
		Width: tor.Width(), Height: tor.Height(),
		MemoryPerCell: 1 << 16,
		Partitions:    k,
	})
	if err != nil {
		return nil, err
	}
	// One src/dst buffer per cell, allocated once: thousands of jobs
	// reuse them, so the per-cell allocator never grows.
	const payload = 256
	bufs := make([]struct{ src, dst mem.Addr }, cells)
	for id := 0; id < cells; id++ {
		s, _, err := m.Cell(topology.CellID(id)).AllocBytes("job-src", payload)
		if err != nil {
			return nil, err
		}
		d, _, err := m.Cell(topology.CellID(id)).AllocBytes("job-dst", payload)
		if err != nil {
			return nil, err
		}
		bufs[id] = struct{ src, dst mem.Addr }{s.Base(), d.Base()}
	}
	s, err := tenancy.New(m)
	if err != nil {
		return nil, err
	}

	// The job: one ring-PUT round inside whatever partition the
	// scheduler granted, flag-fenced so the job's communication is
	// complete before it releases the partition.
	program := func(rank, size int, c *machine.Cell) error {
		comm := core.New(c)
		g := m.Partition(m.PartitionOf(c.ID())).Group()
		right := g.RingNext(c.ID())
		recvFlag := c.Flags.Alloc() // deterministic ID after job reset
		const putsPerCell = 4
		for i := 0; i < putsPerCell; i++ {
			if err := comm.Put(core.Transfer{
				To:     right,
				Remote: bufs[right].dst, Local: bufs[c.ID()].src,
				Size: payload, RecvFlag: recvFlag,
			}); err != nil {
				return err
			}
		}
		c.Flags.Wait(recvFlag, putsPerCell)
		return nil
	}

	start := time.Now()
	results := tenancy.LoadGen{Jobs: totalJobs, Rate: rate, Seed: 1994}.Run(s,
		func(i int) tenancy.Job { return tenancy.Job{Program: program} })
	if err := s.Close(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	perTenant := make([][]time.Duration, k)
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("job %d: %w", i, r.Err)
		}
		tenant := i % k
		perTenant[tenant] = append(perTenant[tenant], r.Latency())
	}
	rows := make([]tenancyRow, 0, k)
	jobsPerSec := float64(totalJobs) / elapsed.Seconds()
	for tenant, lats := range perTenant {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rows = append(rows, tenancyRow{
			Partitions: k,
			Tenant:     tenant,
			Jobs:       len(lats),
			P50Ms:      percentileMs(lats, 50),
			P99Ms:      percentileMs(lats, 99),
			JobsPerSec: jobsPerSec,
		})
	}
	return rows, nil
}

// percentileMs reads the p-th percentile of a sorted latency slice in
// milliseconds (nearest-rank).
func percentileMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := p * len(sorted) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e6
}
