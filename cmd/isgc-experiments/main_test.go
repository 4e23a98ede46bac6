package main

import (
	"strings"
	"testing"

	"isgc/internal/events"
	"isgc/internal/experiments"
)

func TestRunUnknownFig(t *testing.T) {
	if err := run("nope", 0, 0, 0, false, "", nil); err == nil {
		t.Fatal("expected error for unknown -fig")
	}
}

func TestRunBounds(t *testing.T) {
	// bounds is the cheapest full runner; smoke the plumbing end to end.
	if err := run("bounds", 10, 0, 0, false, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run("bounds", 10, 0, 42, true, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig11WithOverrides(t *testing.T) {
	if err := run("11a", 0, 20, 9, false, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run("11b", 0, 20, 9, true, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig12(t *testing.T) {
	if err := run("12", 1, 0, 3, true, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run("12", 1, 0, 3, false, "bogus", nil); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestRunFig13(t *testing.T) {
	if err := run("13", 1, 0, 3, true, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunTheoryAndHetero(t *testing.T) {
	if err := run("theory", 30, 0, 0, false, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run("hetero", 1, 0, 0, true, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblations(t *testing.T) {
	if err := run("ablations", 1, 0, 0, false, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunShow(t *testing.T) {
	for _, good := range []string{"fr:4:2", "cr:7:3", "hr:8:2:2:2"} {
		if err := runShow(good); err != nil {
			t.Errorf("runShow(%q): %v", good, err)
		}
	}
	for _, bad := range []string{
		"", "xx:4:2", "fr:4", "fr:a:2", "fr:5:2", "hr:8:2:2", "hr:8:a:2:2", "cr:4:9",
	} {
		if err := runShow(bad); err == nil {
			t.Errorf("runShow(%q): expected error", bad)
		}
	}
}

func TestApplyFig11Overrides(t *testing.T) {
	cfg := experiments.DefaultFig11a()
	applyFig11Overrides(&cfg, 0, 0)
	if cfg.Steps != experiments.DefaultFig11a().Steps || cfg.Seed != experiments.DefaultFig11a().Seed {
		t.Fatal("zero overrides must keep defaults")
	}
	applyFig11Overrides(&cfg, 7, 13)
	if cfg.Steps != 7 || cfg.Seed != 13 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
}

func TestRunAttribution(t *testing.T) {
	ev := events.New(events.Config{RingSize: 64})
	if err := run("attribution", 0, 30, 5, false, "", ev); err != nil {
		t.Fatal(err)
	}
	if ev.Total() == 0 {
		t.Fatal("attribution run emitted no events into the supplied log")
	}
	if err := run("attribution", 0, 30, 5, true, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestFigNameMatching(t *testing.T) {
	for _, name := range []string{"11a", "11b", "12", "13", "bounds", "ablations", "theory", "hetero", "attribution"} {
		if !strings.Contains("11a 11b 12 13 bounds ablations theory hetero attribution", name) {
			t.Fatalf("test list out of sync: %s", name)
		}
	}
}
