// Command bench is the repository's one end-to-end benchmark: training
// step time over the real TCP path and the decoder at fleet scale, with a
// per-layer budget from a separate traced pass. See README.md.
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -trace 1             every workload, per-layer metrics
//	go run ./bench -workload NAME ...   one workload; last line is JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome; its JSON form is the line the
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples int      // measured steps behind the step statistics
	notes   []string // first few failures, for the human reader
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metricValue{}}
}

// fail records steps failed steps (0 for a run-level failure) and why.
func (r *result) fail(steps int, note string) {
	if steps == 0 && note == "" {
		return
	}
	r.Correct = false
	r.Failed += steps
	if len(r.notes) < 8 {
		r.notes = append(r.notes, note)
	}
}

// set stores the values of the metrics defs lists; a metric the workload
// has no value for reads 0.
func (r *result) set(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
}

// workloadNames lists the workloads in the order they run.
func workloadNames() []string {
	var names []string
	for _, sp := range tcpSpecs {
		names = append(names, sp.name)
	}
	return append(names, fleetSpec.name)
}

func runWorkload(name string, o *options) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	for _, sp := range tcpSpecs {
		if sp.name == name {
			return runTCPWorkload(sp, o)
		}
	}
	if name == fleetSpec.name {
		return runFleetWorkload(&fleetSpec, o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func main() {
	var o options
	workload := flag.String("workload", "", "run this one workload and print its result as a JSON last line (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every input: data, parameters, delays, churn")
	flag.Float64Var(&o.seconds, "seconds", 25, "measuring time per workload run")
	trace := flag.Int("trace", 0, "1 = traced pass: per-layer metrics and a Chrome trace under -out")
	runs := flag.Int("runs", 1, "repeat each workload this many times in fresh child processes (seed, seed+1, ...) and print medians and quartiles")
	arms := flag.String("arms", "", `"fig12": also run the Fig. 12 baseline schemes on straggler-mlp (off-contract)`)
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for traces and temporary checkpoint files")
	flag.Parse()
	o.trace = *trace != 0

	// More than one core, so contention shows; capped, so numbers from a
	// large machine stay comparable with the two-core sandbox.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *arms != "":
		err = runArms(*arms, &o)
	case *workload == "":
		err = runAll(&o, *runs)
	default:
		err = runOne(*workload, &o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process: a table for the reader, then
// the result as the last line.
func runOne(name string, o *options) error {
	res, err := runWorkload(name, o)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("%s  seed=%d  gomaxprocs=%d  measured_steps=%d  step_fail_frac=%d/%d\n",
		name, o.seed, runtime.GOMAXPROCS(0), res.samples, res.Failed, res.Attempted)
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range res.notes {
		fmt.Println("  FAILED:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
