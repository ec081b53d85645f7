package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// Goldens pin the simulated statistics of every workload: T-net
// messages, bytes and hops, per-operation counts, flag increments,
// result digests, MLSim elapsed times and breakdowns. A change that
// only makes the host faster must leave every one of them identical.
// "any" holds the seed-independent statistics, compared on every run;
// "seeds" holds the input-dependent ones for the committed seeds (1994,
// and 2718 held out from development). Other seeds fall back to "any"
// plus the workloads' analytic verification, and the run says so.

//go:embed golden/*.json
var goldenFS embed.FS

var goldenSeeds = []uint64{1994, 2718}

// goldenSet pins one size of a workload: the reference sizes every
// measured run uses, or the go-test sizes.
type goldenSet struct {
	Any   map[string]int64            `json:"any"`
	Seeds map[string]map[string]int64 `json:"seeds"`
}

type goldenFile struct {
	goldenSet
	// Short pins the go-test sizes, so that go test checks simulated
	// identity too.
	Short goldenSet `json:"short"`
}

func loadGolden(fsys fs.FS, name string) (goldenFile, error) {
	var g goldenFile
	data, err := fs.ReadFile(fsys, "golden/"+name+".json")
	if err == nil {
		err = json.Unmarshal(data, &g)
	}
	if err == nil && (len(g.Any)+len(g.Seeds) == 0 || len(g.Short.Any)+len(g.Short.Seeds) == 0) {
		err = errors.New("no statistics pinned")
	}
	if err != nil {
		return g, fmt.Errorf("golden/%s.json: %w", name, err)
	}
	return g, nil
}

// compareGolden counts how many pinned statistics were compared and
// how many differed. A statistic present on only one side differs, and
// so does a golden file that is missing or does not parse: losing the
// goldens must not pass the gate they are.
func compareGolden(name string, seed uint64, short bool, sim simStats) (checked, mismatch int) {
	return compareGoldenFS(goldenFS, name, seed, short, sim)
}

func compareGoldenFS(fsys fs.FS, name string, seed uint64, short bool, sim simStats) (checked, mismatch int) {
	g, err := loadGolden(fsys, name)
	if err != nil {
		fmt.Printf("# sim mismatch: %v (run -update-golden)\n", err)
		return 1, 1
	}
	set := g.goldenSet
	if short {
		set = g.Short
	}
	cmp := func(want, got map[string]int64) {
		for _, k := range sortedKeys(want) {
			checked++
			if v, ok := got[k]; !ok || v != want[k] {
				mismatch++
				fmt.Printf("# sim mismatch: %s %s = %d, golden %d\n", name, k, got[k], want[k])
			}
		}
		for _, k := range sortedKeys(got) {
			if _, ok := want[k]; !ok {
				checked++
				mismatch++
				fmt.Printf("# sim mismatch: %s %s = %d has no golden (run -update-golden)\n", name, k, got[k])
			}
		}
	}
	cmp(set.Any, sim.any)
	if want, ok := set.Seeds[strconv.FormatUint(seed, 10)]; ok {
		cmp(want, sim.seeded)
	} else if len(sim.seeded) > 0 {
		fmt.Printf("# golden: %s has no goldens for seed %d; its %d input-dependent statistics rest on the analytic checks alone\n",
			name, seed, len(sim.seeded))
	}
	return checked, mismatch
}

// runUpdateGolden reruns every workload for each golden seed, at a
// tenth of the reference length and at the go-test sizes, and rewrites
// golden/<workload>.json. The statistics are per iteration, so the run
// length does not enter them.
func runUpdateGolden(stdout io.Writer) error {
	for _, w := range workloads {
		var g goldenFile
		for _, set := range []struct {
			into *goldenSet
			cfg  runCfg
		}{{&g.goldenSet, runCfg{scale: 0.1}}, {&g.Short, runCfg{short: true}}} {
			set.into.Seeds = map[string]map[string]int64{}
			for _, seed := range goldenSeeds {
				cfg := set.cfg
				cfg.seed = seed
				o, err := runPass(w, &cfg, 1)
				if err != nil {
					return err
				}
				if o.failed != 0 {
					return fmt.Errorf("%s seed %d: %d failed operations; goldens not written", w.name, seed, o.failed)
				}
				if set.into.Any != nil && fmt.Sprint(set.into.Any) != fmt.Sprint(o.sim.any) {
					return fmt.Errorf("%s: seed-independent statistics differ between seeds:\n%v\n%v", w.name, set.into.Any, o.sim.any)
				}
				set.into.Any = o.sim.any
				set.into.Seeds[strconv.FormatUint(seed, 10)] = o.sim.seeded
			}
		}
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join("golden", w.name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d + %d statistics, %d + %d at go-test sizes)\n", path,
			len(g.Any), len(g.Seeds["1994"]), len(g.Short.Any), len(g.Short.Seeds["1994"]))
	}
	return nil
}
