package controlplane

import (
	"fmt"
	"testing"
	"time"

	"isgc/internal/cliconfig"
)

// benchFleet builds an in-memory fleet of n idle alive agents — no
// sockets, so the benchmarks below measure the scheduler's decision
// compute (placement derivation, pool scans, claims), not network I/O.
func benchFleet(n int) *fleet {
	f := newFleet(0, nil, nil)
	now := time.Now()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("agent-%03d", i)
		f.agents[name] = &fleetAgent{name: name, alive: true, lastSeen: now}
	}
	return f
}

// BenchmarkReplacementSet is the re-placement decision: scan the pool,
// keep survivors first, and shrink the scheme until a placement builds.
// This is the plane-side compute between "worker declared permanently
// gone" and "successor assignments pushed".
func BenchmarkReplacementSet(b *testing.B) {
	for _, fleetSize := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("fleet=%d", fleetSize), func(b *testing.B) {
			fl := benchFleet(fleetSize)
			s := newScheduler(fl, nil, nil, "")
			j := &job{id: "job-bench", spec: JobSpec{Scheme: cliconfig.SchemeSpec{Scheme: "cr", N: 8, C: 4}}}
			prev := fl.idle()[:8]
			for _, name := range prev {
				fl.agents[name].jobID = j.id
			}
			fl.agents[prev[3]].alive = false // the evicted worker
			want := 8
			if fleetSize == 8 {
				want = 7 // no spare to backfill: the placement shrinks
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set, err := s.replacementSet(j, prev)
				if err != nil || len(set) != want {
					b.Fatalf("replacementSet = %v, %v", set, err)
				}
			}
		})
	}
}

// BenchmarkAdmissionClaim is the admission decision: list the idle pool
// and atomically reserve a job's worth of agents from it.
func BenchmarkAdmissionClaim(b *testing.B) {
	for _, fleetSize := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("fleet=%d", fleetSize), func(b *testing.B) {
			fl := benchFleet(fleetSize)
			s := newScheduler(fl, nil, nil, "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idle := fl.idle()
				if !s.claim(idle[:8], "job-bench") {
					b.Fatal("claim failed on an idle pool")
				}
				fl.mu.Lock()
				for _, name := range idle[:8] {
					fl.agents[name].jobID = ""
				}
				fl.mu.Unlock()
			}
		})
	}
}

// BenchmarkPlacementBuild is the raw cost of deriving a placement from a
// scheme spec — paid once per admission and once per re-placement
// candidate size while shrinking.
func BenchmarkPlacementBuild(b *testing.B) {
	specs := []cliconfig.SchemeSpec{
		{Scheme: "fr", N: 12, C: 4},
		{Scheme: "cr", N: 12, C: 4},
		{Scheme: "hr", N: 12, C: 4, C1: 2, G: 2},
	}
	for _, spec := range specs {
		b.Run(fmt.Sprintf("%s/n=%d", spec.Scheme, spec.N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
