package main

import (
	"fmt"
	"io"
	"os"

	"ap1000plus/internal/apps"
)

// dsmCacheRow is one line of the BENCH_dsmcache.json report: the DSM
// gather workload run with the write-through page cache on or off.
type dsmCacheRow struct {
	Mode        string // cached | uncached
	Cells       int
	Passes      int
	Loads       int64   // DSM loads issued by the program (hits + remote)
	Hits        int64   // page-cache hits
	Misses      int64   // page-cache misses (each becomes a remote load)
	HitRate     float64 // Hits / (Hits + Misses); 0 for uncached
	RemoteLoads int64   // blocking remote loads that reached the MSC+
	Messages    int64   // T-net messages carried
	WallNS      int64   // wall-clock nanoseconds for the whole run
	Speedup     float64 // uncached wall / this wall
}

// runDSMCache measures the coherent DSM page cache: the gather kernel
// (every cell repeatedly reads pseudo-random entries of every other
// cell's table) runs once through plain blocking remote loads and once
// through the page cache, on identical inputs — the numerics are
// verified both times.
func runDSMCache(w io.Writer, quick bool, jsonPath string) error {
	cfg := apps.DSMGatherConfig{Cells: 16, Entries: 256, Passes: 25, Reads: 128, CachePages: 64}
	if quick {
		cfg.Passes = 12
	}
	obsWas := apps.Observe
	apps.Observe = true
	defer func() { apps.Observe = obsWas }()

	var rows []dsmCacheRow
	for _, mode := range []string{"uncached", "cached"} {
		c := cfg
		c.Cache = mode == "cached"
		in, err := apps.NewDSMGather(c)
		if err != nil {
			return fmt.Errorf("dsmcache/%s: %w", mode, err)
		}
		fmt.Fprintf(os.Stderr, "running DSMGather %s...\n", mode)
		if _, err := in.Run(); err != nil {
			return fmt.Errorf("dsmcache/%s: %w", mode, err)
		}
		mt := in.Machine.Metrics()
		tot := mt.Totals()
		r := dsmCacheRow{
			Mode: mode, Cells: c.Cells, Passes: c.Passes,
			Loads:       tot.DSMHits + tot.RemoteLoad,
			Hits:        tot.DSMHits,
			Misses:      tot.DSMMisses,
			RemoteLoads: tot.RemoteLoad,
			Messages:    mt.TNet.Messages,
			WallNS:      mt.WallNanos,
			Speedup:     1,
		}
		if hm := r.Hits + r.Misses; hm > 0 {
			r.HitRate = float64(r.Hits) / float64(hm)
		}
		if len(rows) > 0 && r.WallNS > 0 {
			r.Speedup = float64(rows[0].WallNS) / float64(r.WallNS)
		}
		rows = append(rows, r)
	}

	fmt.Fprintln(w, "Coherent DSM page cache vs blocking remote loads (gather kernel):")
	fmt.Fprintf(w, "  %-10s %10s %10s %8s %12s %10s %12s %8s\n",
		"mode", "hits", "misses", "hitrate", "remote-loads", "messages", "wall-ns", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %10d %10d %7.1f%% %12d %10d %12d %7.2fx\n",
			r.Mode, r.Hits, r.Misses, 100*r.HitRate, r.RemoteLoads, r.Messages, r.WallNS, r.Speedup)
	}
	fmt.Fprintln(w)

	return writeJSON(jsonPath, "dsm cache report", rows)
}
