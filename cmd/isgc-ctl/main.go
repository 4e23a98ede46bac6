// Command isgc-ctl is the operator CLI for a control-plane master
// (isgc-master -controlplane). It speaks the plane's admin HTTP API:
//
//	isgc-ctl -addr http://127.0.0.1:9100 submit -scheme cr -n 4 -c 2 -steps 80
//	isgc-ctl -addr ... submit -spec job.json         # full JobSpec as JSON
//	isgc-ctl -addr ... status                        # all jobs
//	isgc-ctl -addr ... status job-001                # one job (full JSON)
//	isgc-ctl -addr ... fleet                         # agent pool
//	isgc-ctl -addr ... drain job-001                 # quiesce + keep resumable
//	isgc-ctl -addr ... kill job-001                  # terminate
//	isgc-ctl -addr ... wait job-001 job-002          # block until terminal
//
// wait exits 0 only when every awaited job completes; a failed, killed, or
// drained job (or the -timeout) makes it exit 1, which is what CI asserts.
//
// Metrics are not a CLI concern: the plane serves its own on /metrics and
// each job's master metrics on /jobs/{id}/metrics, both Prometheus text
// for a scraper, which is also where alerting rules live.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"isgc/internal/buildinfo"
	"isgc/internal/cliconfig"
	"isgc/internal/controlplane"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:9100", "control plane admin API base URL")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall budget for wait")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: isgc-ctl [-addr URL] <submit|status|fleet|drain|kill|wait> [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*addr, "/")}
	var err error
	switch args[0] {
	case "submit":
		err = cmdSubmit(c, args[1:])
	case "status":
		err = cmdStatus(c, args[1:])
	case "fleet":
		err = cmdFleet(c)
	case "drain":
		err = cmdLifecycle(c, "drain", args[1:])
	case "kill":
		err = cmdLifecycle(c, "kill", args[1:])
	case "wait":
		err = cmdWait(c, args[1:], *timeout)
	default:
		fmt.Fprintf(os.Stderr, "isgc-ctl: unknown command %q\n", args[0])
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isgc-ctl:", err)
		os.Exit(1)
	}
}

// client is a thin JSON-over-HTTP wrapper around the plane API.
type client struct {
	base string
	http http.Client
}

// do performs one API call and decodes the JSON response into out (when
// non-nil). Non-2xx responses surface the server's error envelope.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s %s: %s", method, path, apiErr.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "read the full JobSpec as JSON from this file (\"-\" = stdin; overrides the scheme flags)")
		name      = fs.String("name", "", "human job label")
		scheme    = fs.String("scheme", "cr", "placement scheme: fr, cr, or hr")
		n         = fs.Int("n", 4, "number of workers / partitions")
		cFlag     = fs.Int("c", 2, "partitions per worker")
		c1        = fs.Int("c1", 1, "HR upper rows (scheme=hr)")
		g         = fs.Int("g", 2, "HR group count (scheme=hr)")
		w         = fs.Int("w", 0, "workers to wait for per step (0 = all)")
		steps     = fs.Int("steps", 100, "maximum steps")
		lr        = fs.Float64("lr", 0.2, "learning rate")
		threshold = fs.Float64("threshold", 0, "loss threshold (0 disables)")
		seed      = fs.Int64("seed", 42, "shared data seed")
		samples   = fs.Int("samples", 240, "synthetic dataset size")
		batch     = fs.Int("batch", 8, "per-partition batch size")
	)
	_ = fs.Parse(args)
	var spec controlplane.JobSpec
	if *specPath != "" {
		var raw []byte
		var err error
		if *specPath == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*specPath)
		}
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("bad spec %s: %w", *specPath, err)
		}
	} else {
		data := cliconfig.DefaultData(*seed)
		data.Samples = *samples
		data.Batch = *batch
		spec = controlplane.JobSpec{
			Name:          *name,
			Scheme:        cliconfig.SchemeSpec{Scheme: *scheme, N: *n, C: *cFlag, C1: *c1, G: *g},
			Data:          data,
			W:             *w,
			LearningRate:  *lr,
			MaxSteps:      *steps,
			LossThreshold: *threshold,
		}
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(http.MethodPost, "/jobs", spec, &out); err != nil {
		return err
	}
	fmt.Println(out.ID)
	return nil
}

func cmdStatus(c *client, args []string) error {
	if len(args) > 0 {
		var st controlplane.JobStatus
		if err := c.do(http.MethodGet, "/jobs/"+args[0], nil, &st); err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	var out struct {
		Jobs []controlplane.JobStatus `json:"jobs"`
	}
	if err := c.do(http.MethodGet, "/jobs", nil, &out); err != nil {
		return err
	}
	fmt.Printf("%-10s %-12s %-10s %-14s %6s %5s %4s %8s\n",
		"ID", "NAME", "STATE", "SCHEME", "STEP", "GEN", "N", "LOSS")
	for _, j := range out.Jobs {
		loss := "-"
		if j.FinalLoss != 0 {
			loss = fmt.Sprintf("%.4f", j.FinalLoss)
		}
		fmt.Printf("%-10s %-12s %-10s %-14s %3d/%-3d %5d %4d %8s\n",
			j.ID, j.Name, j.State, j.Scheme, j.Step, j.MaxSteps, j.Generation, j.N, loss)
	}
	return nil
}

func cmdFleet(c *client) error {
	var out struct {
		Agents []controlplane.AgentView `json:"agents"`
	}
	if err := c.do(http.MethodGet, "/fleet", nil, &out); err != nil {
		return err
	}
	fmt.Printf("%-20s %-6s %-10s %-7s %s\n", "AGENT", "ALIVE", "JOB", "WORKER", "LAST-SEEN")
	for _, a := range out.Agents {
		job := a.JobID
		if job == "" {
			job = "-"
		}
		fmt.Printf("%-20s %-6v %-10s %-7d %.1fs ago\n", a.Name, a.Alive, job, a.WorkerID, a.LastSeenAgeSeconds)
	}
	return nil
}

func cmdLifecycle(c *client, verb string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: isgc-ctl %s <job-id>", verb)
	}
	var out struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	var err error
	if verb == "kill" {
		err = c.do(http.MethodDelete, "/jobs/"+args[0], nil, &out)
	} else {
		err = c.do(http.MethodPost, "/jobs/"+args[0]+"/drain", nil, &out)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", out.ID, out.State)
	return nil
}

// cmdWait polls until every awaited job (all jobs when none are named) is
// terminal, then succeeds only if they all completed.
func cmdWait(c *client, ids []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var out struct {
			Jobs []controlplane.JobStatus `json:"jobs"`
		}
		if err := c.do(http.MethodGet, "/jobs", nil, &out); err != nil {
			return err
		}
		byID := make(map[string]controlplane.JobStatus, len(out.Jobs))
		for _, j := range out.Jobs {
			byID[j.ID] = j
		}
		watch := ids
		if len(watch) == 0 {
			watch = watch[:0]
			for _, j := range out.Jobs {
				watch = append(watch, j.ID)
			}
		}
		allDone, allCompleted := true, true
		for _, id := range watch {
			j, ok := byID[id]
			if !ok {
				return fmt.Errorf("no job %q", id)
			}
			switch j.State {
			case controlplane.JobCompleted:
			case controlplane.JobFailed, controlplane.JobKilled, controlplane.JobDrained:
				allCompleted = false
			default:
				allDone = false
			}
		}
		if allDone {
			for _, id := range watch {
				j := byID[id]
				fmt.Printf("%s: %s (steps=%d/%d generations=%d replacements=%d converged=%v)\n",
					j.ID, j.State, j.Step, j.MaxSteps, j.Generation+1, j.Replacements, j.Converged)
			}
			if !allCompleted {
				return fmt.Errorf("not all jobs completed")
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %v", timeout, watch)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
