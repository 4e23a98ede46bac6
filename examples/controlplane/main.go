// Controlplane: the elastic multi-job control plane end to end, in one
// process — a fleet of six worker agents, two concurrent IS-GC jobs with
// different schemes sharing that fleet, and a live re-placement drill: one
// of the second job's agents is killed abruptly mid-run, the plane detects
// the permanent eviction, quiesces the job at a step boundary, re-derives
// a smaller placement over the survivors, and resumes it warm from
// in-memory parameters while the first job keeps training untouched.
//
// The same topology runs as separate processes with:
//
//	isgc-master -controlplane -fleet-addr :7100 -metrics-addr :9100
//	isgc-worker -fleet 127.0.0.1:7100 &   # × 6
//	isgc-ctl -addr http://127.0.0.1:9100 submit -scheme cr -n 3 -c 2
//
// Run with: go run ./examples/controlplane
//
// With -admin ADDR the example also serves the admin surface: the plane's
// /metrics, each job's master metrics on /jobs/{id}/metrics, /healthz and
// /debug/pprof; -linger keeps the process up after the drill so CI can
// curl it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"isgc/internal/admin"
	"isgc/internal/cliconfig"
	"isgc/internal/controlplane"
	"isgc/internal/events"
	"isgc/internal/metrics"
)

func main() {
	adminAddr := flag.String("admin", "", "serve /metrics, /jobs/{id}/metrics, /healthz and /debug/pprof on this address (empty disables)")
	linger := flag.Duration("linger", 0, "keep the process up this long after the drill (for smoke tests)")
	flag.Parse()

	ev := events.New(events.Config{MinLevel: events.LevelInfo, RingSize: 256})
	var reg *metrics.Registry
	if *adminAddr != "" {
		reg = metrics.NewRegistry()
	}
	plane, err := controlplane.New(controlplane.Config{
		FleetAddr: "127.0.0.1:0",
		Events:    ev,
		Registry:  reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := plane.Start(); err != nil {
		log.Fatal(err)
	}
	defer plane.Stop()
	fmt.Printf("plane: fleet on %s\n", plane.FleetAddr())

	if *adminAddr != "" {
		h := plane.Handler()
		adm := admin.New(admin.Config{
			Addr:     *adminAddr,
			Registry: reg,
			Events:   ev,
			Health: func() any {
				return map[string]any{"jobs": plane.Jobs(), "fleet": plane.FleetSnapshot()}
			},
			Extra: map[string]http.Handler{"/jobs": h, "/jobs/": h, "/fleet": h},
		})
		if err := adm.Start(); err != nil {
			log.Fatal(err)
		}
		defer func() {
			if *linger > 0 {
				fmt.Printf("lingering %v — admin stays on %s\n", *linger, adm.URL())
				time.Sleep(*linger)
			}
		}()
		fmt.Printf("admin: %s/metrics (per job: /jobs/{id}/metrics)\n", adm.URL())
	}

	// Six agents join the shared pool.
	agents := make(map[string]*controlplane.Agent, 6)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("agent-%d", i)
		a, err := controlplane.NewAgent(controlplane.AgentConfig{
			FleetAddr: plane.FleetAddr(),
			Name:      name,
		})
		if err != nil {
			log.Fatal(err)
		}
		agents[name] = a
		go func() { _ = a.Run() }()
	}

	// Two concurrent jobs share the fleet, three agents each. Job B runs
	// with tight liveness/permanence timeouts so the kill below turns into
	// a fast permanent eviction.
	jobA, err := plane.Submit(controlplane.JobSpec{
		Name:       "steady",
		Scheme:     cliconfig.SchemeSpec{Scheme: "cr", N: 3, C: 2},
		Data:       cliconfig.DefaultData(42),
		MaxSteps:   60,
		ComputePar: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Generation-0 delays slow job B down enough that the eviction timer
	// can beat the step cap; the replacement generation runs clean.
	jobB, err := plane.Submit(controlplane.JobSpec{
		Name:            "elastic",
		Scheme:          cliconfig.SchemeSpec{Scheme: "cr", N: 3, C: 2},
		Data:            cliconfig.DefaultData(7),
		MaxSteps:        80,
		ComputePar:      1,
		LivenessTimeout: 300 * time.Millisecond,
		PermanentAfter:  600 * time.Millisecond,
		Faults: []controlplane.WorkerFault{
			{Worker: 0, CrashAtStep: -1, Delay: 25 * time.Millisecond},
			{Worker: 1, CrashAtStep: -1, Delay: 25 * time.Millisecond},
			{Worker: 2, CrashAtStep: -1, Delay: 25 * time.Millisecond},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (steady) and %s (elastic)\n", jobA, jobB)

	// Wait until B is running, then kill one of its agents abruptly — no
	// farewell on either the fleet or the master connection.
	victim := waitForAgentOf(plane, agents, jobB)
	fmt.Printf("killing %s (assigned to %s) mid-run\n", victim, jobB)
	agents[victim].Kill()

	for _, id := range []string{jobA, jobB} {
		waitTerminal(plane, id)
	}
	for _, st := range plane.Jobs() {
		fmt.Printf("%s (%s): %s steps=%d/%d generations=%d replacements=%d final_loss=%.4f\n",
			st.ID, st.Name, st.State, st.Step, st.MaxSteps, st.Generation+1, st.Replacements, st.FinalLoss)
	}
	fmt.Println("\nreplacement events:")
	for _, e := range ev.Snapshot() {
		switch e.Type {
		case "plane.replacement_started", "plane.replacement_derived", "plane.replacement_completed":
			fmt.Printf("  %-28s %v\n", e.Type, e.Fields)
		}
	}
}

// waitForAgentOf blocks until the job is running with assigned workers and
// returns one of its agent names.
func waitForAgentOf(plane *controlplane.Plane, agents map[string]*controlplane.Agent, id string) string {
	for {
		st, ok := plane.Job(id)
		if ok && st.State == controlplane.JobRunning && len(st.Workers) > 0 && st.Step >= 3 {
			return st.Workers[len(st.Workers)-1].Agent
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func waitTerminal(plane *controlplane.Plane, id string) {
	for {
		st, _ := plane.Job(id)
		switch st.State {
		case controlplane.JobCompleted, controlplane.JobFailed, controlplane.JobKilled, controlplane.JobDrained:
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
