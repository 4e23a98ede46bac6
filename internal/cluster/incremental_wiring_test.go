package cluster

import (
	"testing"

	"isgc/internal/engine"
	"isgc/internal/isgc"
	"isgc/internal/placement"
)

// TestMasterWiresIncrementalDecode checks the IncrementalDecode config
// plumbing end to end: a master run must switch the scheme's repair path on
// (the step core does, from the config the master hands it) and hook its
// repair/fallback callbacks to the master's counters, without requiring
// DecodeCache. Every step of a wait-all run decodes the full mask: the first
// is a fresh solve, each later one a repair.
func TestMasterWiresIncrementalDecode(t *testing.T) {
	p, err := placement.FR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	scheme := isgc.New(p, 7)
	st, err := engine.NewISGC(scheme)
	if err != nil {
		t.Fatal(err)
	}
	res, mm := runStrategyCluster(t, st, func(c *MasterConfig) { c.IncrementalDecode = true }, nil)

	stats := scheme.IncrementalDecodeStats()
	if want := uint64(res.Run.Steps() - 1); stats.FullSolves != 1 || stats.Repairs != want {
		t.Fatalf("stats = %+v, want 1 full solve + %d repairs (incremental path not enabled?)", stats, want)
	}
	if got := mm.DecodeRepairs.Value(); got != stats.Repairs {
		t.Fatalf("isgc_master_decode_repairs_total = %d, want %d (hooks not wired)", got, stats.Repairs)
	}
	if got := mm.DecodeFallbacks.Value(); got != 0 {
		t.Fatalf("isgc_master_decode_fallbacks_total = %d, want 0", got)
	}
}
