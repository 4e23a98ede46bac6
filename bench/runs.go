package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// runAll runs every workload `runs` times, each run in a fresh child
// process of this binary so no run inherits another's heap, sockets or
// scheduler state, and prints each metric's median and quartiles. A metric
// whose inter-quartile spread exceeds its bound is marked unresolved: two
// commits cannot be told apart on it at this run count.
func runAll(o *options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("seed=%d seconds=%g runs=%d gomaxprocs=%d\n", o.seed, o.seconds, runs, runtime.GOMAXPROCS(0))
	ok := true
	for _, name := range workloadNames() {
		values := map[string][]float64{}
		attempted, failed := 0, 0
		for i := 0; i < runs; i++ {
			res, err := runChild(self, name, o, o.seed+int64(i))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			attempted, failed = attempted+res.Attempted, failed+res.Failed
			ok = ok && res.Correct
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("\n%s  step_fail_frac=%d/%d\n", name, failed, attempted)
		fmt.Printf("  %-32s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit")
		for _, d := range defs {
			v := values[d.Name]
			med, q1, q3 := quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)
			mark := ""
			if d.Bound > 0 && med != 0 && (q3-q1)/med > d.Bound {
				mark = "  unresolved"
			}
			fmt.Printf("  %-32s %14.6g %14.6g %14.6g  %s%s\n", d.Name, med, q1, q3, d.Unit, mark)
		}
	}
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, name string, o *options, seed int64) (*result, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child's last line is not a result: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		if bytes.Contains(l, []byte("FAILED:")) {
			fmt.Printf("  %s seed %d: %s\n", name, seed, bytes.TrimSpace(l))
		}
	}
	return &res, nil
}
