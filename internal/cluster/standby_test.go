package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/engine"
	"isgc/internal/model"
)

func TestStandbyStopsOnRequest(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if err := WaitForTakeover(store, 200*time.Millisecond, stop, nil); !errors.Is(err, ErrStandbyStopped) {
		t.Fatalf("err = %v, want ErrStandbyStopped", err)
	}
}

func TestStandbyWaitsForFirstPrimary(t *testing.T) {
	// Empty directory, no lease ever written: the standby must NOT take
	// over — it would cold-start a second run of its own.
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- WaitForTakeover(store, 100*time.Millisecond, stop, nil) }()
	select {
	case err := <-done:
		t.Fatalf("standby took over an empty directory: %v", err)
	case <-time.After(600 * time.Millisecond):
	}
	close(stop)
	if err := <-done; !errors.Is(err, ErrStandbyStopped) {
		t.Fatalf("err = %v, want ErrStandbyStopped", err)
	}
}

func TestStandbyTakesOverExpiredLease(t *testing.T) {
	// A crashed primary leaves a lease that stops being renewed; the
	// standby must wait out the TTL and then take over.
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteLease("pid1@dead", 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- WaitForTakeover(store, 150*time.Millisecond, nil, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never took over a stale lease")
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Fatalf("standby took over after %v, before the %v TTL lapsed", waited, 150*time.Millisecond)
	}
}

func TestStandbyTakesOverReleasedLease(t *testing.T) {
	// A graceful exit removes the lease; with a checkpoint present the
	// standby takes over without waiting out the TTL.
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(3, map[string]int{"step": 3}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- WaitForTakeover(store, 10*time.Second, nil, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("standby waited for a TTL despite a released lease + checkpoint")
	}
}

// TestClusterStandbyFailover is the warm-standby acceptance check: the
// primary is stopped mid-run, the standby notices the released lease,
// restores from the shared checkpoint directory on the same address, and
// the completed run matches an uninterrupted reference bit for bit.
func TestClusterStandbyFailover(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	base := func(st engine.Strategy, addr string) MasterConfig {
		return MasterConfig{
			Addr: addr, Strategy: st, Model: mdl, Data: data,
			LearningRate: 0.3, W: 4, MaxSteps: 12, Seed: 42,
			ComputePar: 1,
		}
	}

	refMaster, err := NewMaster(base(freshISGC(t, 4, 2, 11), "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	refFleet := startFleet(t, refMaster.cfg.Strategy, data, mdl, refMaster.Addr(), 0, nil, fleetShape{})
	ref, err := refMaster.Run()
	if err != nil {
		t.Fatal(err)
	}
	refFleet.Wait()

	addr := freeLoopbackAddr(t)
	dir := t.TempDir()
	store1, err := checkpoint.NewStore(dir, checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := base(freshISGC(t, 4, 2, 11), addr)
	cfg1.Checkpoint = store1
	cfg1.CheckpointEvery = 3
	cfg1.LeaseTTL = 500 * time.Millisecond
	m1, err := NewMaster(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	// A constant 60ms upload delay bounds each step from below: the ≥7
	// steps remaining after waitForStep(5) take ≥420ms, so the 300ms
	// standby observation window below provably overlaps a live primary.
	// (Without it the 12-step run finishes — and gracefully releases its
	// lease — before the standby's first poll, a legitimate takeover.)
	fleet := startFleet(t, cfg1.Strategy, data, mdl, addr, 30*time.Second, fixedDelay{60 * time.Millisecond}, fleetShape{})
	res1Ch := make(chan *engine.Result, 1)
	go func() {
		res, err := m1.Run()
		if err != nil {
			t.Error(err)
		}
		res1Ch <- res
	}()
	waitForStep(t, m1, 5)

	// The standby watches the lease while the primary is still alive; it
	// must not fire until the primary goes away.
	standbyStore, err := checkpoint.NewStore(dir, checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	takeover := make(chan error, 1)
	go func() { takeover <- WaitForTakeover(standbyStore, 500*time.Millisecond, nil, nil) }()
	select {
	case err := <-takeover:
		t.Fatalf("standby fired while the primary was alive: %v", err)
	case <-time.After(300 * time.Millisecond):
	}

	m1.Stop()
	res1 := <-res1Ch
	if res1 == nil || !res1.Interrupted {
		t.Fatalf("primary did not report an interrupted run: %+v", res1)
	}
	select {
	case err := <-takeover:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never took over after the primary released its lease")
	}

	cfg2 := base(freshISGC(t, 4, 2, 11), addr)
	cfg2.Checkpoint = standbyStore
	cfg2.CheckpointEvery = 3
	cfg2.Restore = true
	cfg2.LeaseTTL = 500 * time.Millisecond
	m2, err := NewMaster(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	fleet.Wait()

	combined := append(zeroElapsed(res1.Run.Records), zeroElapsed(res2.Run.Records)...)
	if !reflect.DeepEqual(combined, zeroElapsed(ref.Run.Records)) {
		t.Fatal("failover run's records diverged from the uninterrupted reference")
	}
	if !reflect.DeepEqual(res2.Params, ref.Params) {
		t.Fatal("final params are not bit-identical after standby failover")
	}
}
