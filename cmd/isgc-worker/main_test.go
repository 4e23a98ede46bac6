package main

import (
	"testing"
	"time"

	"isgc/internal/cliconfig"
	"isgc/internal/straggler"
)

func TestRunRejectsBadScheme(t *testing.T) {
	spec := cliconfig.SchemeSpec{Scheme: "bogus", N: 4, C: 2}
	if err := run("127.0.0.1:1", 0, spec, cliconfig.DefaultData(1), 0, nil, 0, 0, "", "", "info", "", false); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestRunRejectsBadWorkerID(t *testing.T) {
	spec := cliconfig.SchemeSpec{Scheme: "cr", N: 4, C: 2}
	if err := run("127.0.0.1:1", 7, spec, cliconfig.DefaultData(1), 0, nil, 0, 0, "", "", "info", "", false); err == nil {
		t.Fatal("expected error for out-of-range id")
	}
	if err := run("127.0.0.1:1", -1, spec, cliconfig.DefaultData(1), 0, nil, 0, 0, "", "", "info", "", false); err == nil {
		t.Fatal("expected error for negative id")
	}
}

func TestRunRejectsIndivisibleDataset(t *testing.T) {
	spec := cliconfig.SchemeSpec{Scheme: "cr", N: 7, C: 2}
	d := cliconfig.DefaultData(1)
	d.Samples = 240 // 240 % 7 != 0
	if err := run("127.0.0.1:1", 0, spec, d, 0, nil, 0, 0, "", "", "info", "", false); err == nil {
		t.Fatal("expected partitioning error")
	}
}

func TestRunFailsWithoutMaster(t *testing.T) {
	// Valid config, nothing listening: the dial must fail (with retries
	// bounded by the worker's dial timeout).
	spec := cliconfig.SchemeSpec{Scheme: "cr", N: 4, C: 2}
	start := time.Now()
	if err := run("127.0.0.1:1", 0, spec, cliconfig.DefaultData(1), 0, nil, 0, 0, "", "", "info", "", false); err == nil {
		t.Fatal("expected dial error")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("dial retry ran unbounded")
	}
}

func TestBuildFault(t *testing.T) {
	if f := buildFault(-1, 0, -1); f != nil {
		t.Fatalf("healthy worker must have no fault model, got %v", f)
	}
	f := buildFault(5, 0.25, 2)
	if f == nil {
		t.Fatal("expected a composed fault model")
	}
	want := "compose(crashAt(5),dropWithProb(0.25),disconnectAt(2))"
	if f.String() != want {
		t.Fatalf("fault = %q, want %q", f.String(), want)
	}
	if buildFault(0, 0, -1).String() != "compose(crashAt(0))" {
		t.Fatal("crash-at 0 must be honored (crash on the first step)")
	}
	_ = straggler.Fault(f) // the CLI hands the cluster a straggler.Fault
}
