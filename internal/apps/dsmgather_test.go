package apps

import (
	"testing"

	"ap1000plus/internal/obs"
)

// runGather builds and runs one observed gather instance and returns
// its counter totals and T-net message count.
func runGather(t *testing.T, cfg DSMGatherConfig) (obs.CellSnapshot, int64) {
	t.Helper()
	obsWas := Observe
	Observe = true
	defer func() { Observe = obsWas }()
	in, err := NewDSMGather(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	mt := in.Machine.Metrics()
	return mt.Totals(), mt.TNet.Messages
}

// TestDSMGatherCachedMatchesUncached runs the gather kernel with and
// without the page cache. Verify() holds both times (the numerics are
// modelled analytically), the cached run must actually hit the cache,
// and every invalidation the owners sent must have been applied.
func TestDSMGatherCachedMatchesUncached(t *testing.T) {
	cfg := TestDSMGather()
	ct, _ := runGather(t, cfg)
	if ct.DSMHits == 0 {
		t.Error("cached gather never hit the page cache")
	}
	if ct.DSMInvalsSent == 0 {
		t.Error("updates sent no invalidations")
	}
	if ct.DSMInvalsSent != ct.DSMInvalsRecv {
		t.Errorf("invalidations sent=%d received=%d, want equal", ct.DSMInvalsSent, ct.DSMInvalsRecv)
	}
	cfg.Cache = false
	if ut, _ := runGather(t, cfg); ut.DSMHits != 0 || ut.DSMInvalsSent != 0 {
		t.Errorf("uncached gather touched the cache: hits=%d invals=%d", ut.DSMHits, ut.DSMInvalsSent)
	}
}

// TestDSMGatherMessageCounts pins the gather kernel's wire traffic with
// updates off. Uncached, each of the P·(P−1)·Reads·Passes loads is one
// blocking remote load of two messages. Cached, every load is a hit or
// a miss and only misses reach the wire. Later passes re-read the
// indices the first pass fetched, so misses do not grow with Passes.
func TestDSMGatherMessageCounts(t *testing.T) {
	const passes = 3
	cfg := DSMGatherConfig{Cells: 8, Entries: 128, Passes: passes, Reads: 32, CachePages: 16}
	want := int64(8 * 7 * 32 * passes)
	if ut, msgs := runGather(t, cfg); ut.RemoteLoad != want || msgs != 2*want {
		t.Errorf("uncached: %d remote loads, %d messages; want %d, %d", ut.RemoteLoad, msgs, want, 2*want)
	}
	cfg.Cache = true
	ct, msgs := runGather(t, cfg)
	if ct.DSMHits+ct.DSMMisses != want || msgs != 2*ct.DSMMisses {
		t.Errorf("cached: %d hits + %d misses, %d messages; want %d loads, 2·misses messages",
			ct.DSMHits, ct.DSMMisses, msgs, want)
	}
	cfg.Passes = 2 * passes
	if again, _ := runGather(t, cfg); again.DSMMisses != ct.DSMMisses {
		t.Errorf("cached misses %d at %d passes, %d at %d; want equal", ct.DSMMisses, passes, again.DSMMisses, 2*passes)
	}
}
