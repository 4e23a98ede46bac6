package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/cluster"
	"isgc/internal/dataset"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/placement"
	"isgc/internal/trace"
)

// The per-layer numbers of a traced pass. Every layer is observed from
// outside: the master's own Timeline phase spans, the wrappers around the
// values the harness hands the system through its config, the metrics
// registries, and probes that replay the pass's shapes and masks through a
// layer's public entry point after the pass.

func ms(d time.Duration) float64 { return d.Seconds() * msPerSec }

// masterPhase names a span of the master's own step loop: "step" for the
// whole-step span, the phase name for a phase span. The master records the
// spans of one name in step order.
func masterPhase(s events.Span) (string, bool) {
	switch {
	case s.TID != 0:
		return "", false
	case s.Cat == "step":
		return "step", true
	case s.Cat == "phase":
		return s.Name, true
	}
	return "", false
}

// perStep groups calls by step and returns, for steps [from, to), the sum of
// durations, the wall-clock span the calls cover, and the earliest start.
func perStep(calls []call, from, to int) (cpu, wall []float64, first []time.Time) {
	cpu, wall = make([]float64, to-from), make([]float64, to-from)
	first, last := make([]time.Time, to-from), make([]time.Time, to-from)
	for _, c := range calls {
		k := c.step - from
		if k < 0 || k >= to-from {
			continue
		}
		cpu[k] += ms(c.dur)
		if first[k].IsZero() || c.start.Before(first[k]) {
			first[k] = c.start
		}
		if end := c.start.Add(c.dur); end.After(last[k]) {
			last[k] = end
		}
	}
	for k := range wall {
		wall[k] = ms(last[k].Sub(first[k]))
	}
	return cpu, wall, first
}

func (sp *tcpSpec) layers(run *tcpRun, baseRate float64, in *tcpInputs, o *options) (map[string]float64, error) {
	rec, recs := run.rec, run.res.Run.Records
	from, to := rec.warmup, len(rec.ticks)-1 // measured steps: those with a closing tick
	steps := float64(to - from)
	m := map[string]float64{}

	// Master phases, from the master's own Timeline. Spans of a name are
	// recorded in step order.
	phase := map[string][]float64{}
	var gatherStart []time.Time
	for _, s := range run.tl.Spans() {
		if name, ok := masterPhase(s); ok {
			phase[name] = append(phase[name], ms(s.Dur))
			if name == "gather" {
				gatherStart = append(gatherStart, s.Start)
			}
		}
	}
	for name, all := range phase {
		if len(all) < to {
			return nil, fmt.Errorf("%s: timeline has %d %q spans for %d steps", sp.name, len(all), name, to)
		}
		phase[name] = all[from:to]
	}
	// The host-clock reading runs inside Recover, so inside the master's
	// decode and step spans; it is the harness's time, not the step's.
	for k := from; k < to; k++ {
		phase["decode"][k-from] -= rec.hostReading(k) * msPerSec
		phase["step"][k-from] -= rec.hostReading(k) * msPerSec
	}
	lossCPU, lossWall, _ := perStep(run.lossLog.calls, from, to)
	// The sync loop's update span covers the parameter update and the
	// full-set loss evaluation; report the two apart.
	update := make([]float64, len(lossWall))
	for k := range update {
		update[k] = phase["update"][k] - lossWall[k]
	}
	phase["update"] = update
	for _, name := range []string{"step", "broadcast", "gather", "decode", "update"} {
		m["cluster."+name+"_ms"] = trace.Mean(phase[name])
		m["cluster."+name+"_p95_ms"] = quantile(phase[name], 0.95)
	}
	m["model.loss_ms"], m["model.loss_cpu_ms"] = trace.Mean(lossWall), trace.Mean(lossCPU)

	// Workers, from the wrappers. The worker whose upload closed step k's
	// gather is the gathered worker whose upload was ready last; what it
	// spent computing, encoding and sleeping is the part of the gather that
	// is not exchange. The exchange's first part is the wait until that
	// worker starts on step k: delivery of the parameters, and whatever
	// earlier step it was still serving.
	var gradCalls, gradMS, encodeMS float64
	var delays []float64
	gradFirst := make([][]time.Time, sp.n)
	for i, p := range run.probes {
		cpu, _, first := perStep(p.grad.calls, from, to)
		gradFirst[i] = first
		for _, v := range cpu {
			gradMS += v
		}
		for _, c := range p.grad.calls {
			if c.step >= from && c.step < to {
				gradCalls++
			}
		}
		for _, c := range p.encode {
			if c.step >= from && c.step < to {
				encodeMS += ms(c.dur)
			}
		}
		for _, d := range p.delay {
			delays = append(delays, ms(d))
		}
	}
	var transport, wait, critical []float64
	for k := from; k < to; k++ {
		closer := -1
		rec.avail[k].Range(func(i int) bool {
			p := run.probes[i]
			if k < len(p.ready) && (closer < 0 || p.ready[k].After(run.probes[closer].ready[k])) {
				closer = i
			}
			return true
		})
		if closer < 0 {
			continue
		}
		p := run.probes[closer]
		transport = append(transport, phase["gather"][k-from]-ms(p.ready[k].Sub(gradFirst[closer][k-from])))
		wait = append(wait, ms(gradFirst[closer][k-from].Sub(gatherStart[k])))
		if k < len(p.delay) {
			critical = append(critical, ms(p.delay[k]))
		}
	}
	m["cluster.transport_ms"] = trace.Mean(transport)
	m["cluster.worker_wait_ms"] = trace.Mean(wait)
	m["model.grad_ms"] = gradMS / max(gradCalls, 1)
	m["model.grad_ms_per_step"] = gradMS / steps
	m["model.grad_calls"] = gradCalls / steps
	m["isgc.encode_ms"] = encodeMS / steps
	m["straggler.delay_p50_ms"] = quantile(delays, 0.5)
	m["straggler.delay_critical_ms"] = trace.Mean(critical)

	// Counters, from the metrics registries; they cover the whole pass.
	all := float64(len(recs))
	bytes, frames := float64(run.mm.SentBytes.Value()), float64(sp.n)*all
	for _, wm := range run.wm {
		bytes += float64(wm.SentBytes.Value())
		frames += float64(max(wm.SubFrames.Value(), wm.Steps.Value()))
	}
	m["cluster.wire_bytes_per_step"] = bytes / all
	m["cluster.frames_per_step"] = frames / all
	m["checkpoint.saves"] = float64(run.mm.CheckpointWrites.Value()) / all
	if w := run.mm.CheckpointWrites.Value(); w > 0 {
		m["checkpoint.bytes"] = float64(run.mm.CheckpointBytes.Value()) / float64(w)
	}
	if errs := run.mm.CheckpointErrors.Value(); errs > 0 {
		return nil, fmt.Errorf("%s: %d checkpoint writes failed", sp.name, errs)
	}

	// Decoder quality and useful work over attempts, from the step records.
	var chosen, available, alpha float64
	for _, r := range recs {
		chosen += float64(r.Chosen)
		available += float64(r.Available)
		_, upper := run.place.AlphaBounds(r.Available)
		alpha += float64(r.Chosen) / float64(upper) / all
	}
	gathered := 0
	for _, w := range run.attr.Workers {
		gathered += w.Chosen
	}
	if float64(gathered) != available {
		return nil, fmt.Errorf("%s: attribution report counts %d gathered gradients, step records %v", sp.name, gathered, available)
	}
	m["cluster.arrival_used_frac"] = chosen / available
	m["isgc.alpha_over_upper"] = alpha

	m["engine.recover_p50_ms"] = quantile(durationsMS(rec.recoverDur[from:to]), 0.5)
	m["engine.recover_p95_ms"] = quantile(durationsMS(rec.recoverDur[from:to]), 0.95)
	m["cluster.register_ms"] = ms(rec.ticks[0].Sub(run.masterUp) - recs[0].Elapsed)
	m["placement.build_ms"] = ms(run.build)

	// Probes, on the shapes and masks the pass recorded.
	dim := sp.model.Dim()
	m["cluster.frame_encode_us_per_mb"], m["cluster.frame_decode_us_per_mb"] = probeFrames(dim)
	m["isgc.decode_p50_us"], m["isgc.decode_p95_us"], m["isgc.aggregate_ms"] =
		probeDecode(run.place, o.seed, rec.avail[from:to], constantCoded(sp.n, dim))
	var err error
	if sp.ckptEvery > 0 {
		if m["checkpoint.save_ms"], err = probeCheckpoint(run.res.Params, o.outDir); err != nil {
			return nil, err
		}
	}
	if m["dataset.batch_us"], err = probeLoader(in.parts[0], sp.batch); err != nil {
		return nil, err
	}
	run.proc.fill(m, rec)

	tick := trace.Mean(rec.rawIntervals()) * msPerSec
	accounted := m["cluster.broadcast_ms"] + m["cluster.gather_ms"] + m["cluster.decode_ms"] +
		m["cluster.update_ms"] + m["model.loss_ms"] + m["checkpoint.save_ms"]*m["checkpoint.saves"]
	m["bench.unaccounted_ms"] = tick - accounted
	m["bench.unaccounted_frac"] = (tick - accounted) / tick
	m["bench.trace_overhead_frac"] = 1 - rec.stepsPerSecond()/baseRate

	return m, sp.writeTrace(run, filepath.Join(o.outDir, sp.name+".trace.json"))
}

// writeTrace writes the pass as a Chrome trace: the master's and workers'
// own spans plus the wrappers' (already on the Timeline) and one recover
// span per step, every span of a step carrying the step number.
func (sp *tcpSpec) writeTrace(run *tcpRun, path string) error {
	out := events.NewTimeline(1 << 22)
	out.SetThreadName(0, "master")
	for i := 0; i < sp.n; i++ {
		out.SetThreadName(i+1, fmt.Sprintf("worker %d", i))
	}
	seen := map[string]int{}
	for _, s := range run.tl.Spans() {
		if key, ok := masterPhase(s); ok {
			args := map[string]any{"step": seen[key]}
			for k, v := range s.Args {
				args[k] = v
			}
			s.Args = args
			seen[key]++
		}
		out.Add(s)
	}
	for k, d := range run.rec.recoverDur {
		out.Add(events.Span{Name: "recover", Cat: "engine", Start: run.rec.ticks[k], Dur: d,
			Args: map[string]any{"step": k}})
	}
	return out.WriteFile(path)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// constantCoded is n coded vectors of the workload's dimension for the
// aggregate probe; values do not matter to its cost.
func constantCoded(n, dim int) [][]float64 {
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = make([]float64, dim)
		for j := range coded[i] {
			coded[i][j] = 1e-3
		}
	}
	return coded
}

// probeFrames times the binary frame codec on a gradient envelope of the
// given dimension: µs per MB encoded and decoded.
func probeFrames(dim int) (encode, decode float64) {
	const calls = 200
	env := &cluster.Envelope{Kind: cluster.MsgGradient, Worker: 1, Step: 1, Coded: make([]float64, dim)}
	var buf []byte
	start := time.Now()
	for i := 0; i < calls; i++ {
		var err error
		if buf, err = cluster.AppendFrame(buf[:0], env); err != nil {
			return 0, 0
		}
	}
	encoded := time.Since(start)
	start = time.Now()
	for i := 0; i < calls; i++ {
		if _, err := cluster.DecodeFrame(buf); err != nil {
			return 0, 0
		}
	}
	decoded := time.Since(start)
	mbs := float64(calls) * float64(len(buf)) / mb
	return encoded.Seconds() * usPerSec / mbs, decoded.Seconds() * usPerSec / mbs
}

// probeDecode replays recorded availability masks through a fresh scheme,
// timing Decode and Aggregate apart (Strategy.Recover runs them together).
func probeDecode(place *placement.Placement, seed int64, masks []*bitset.Set, coded [][]float64) (p50us, p95us, aggregateMS float64) {
	const maxMasks = 512
	if len(masks) > maxMasks {
		masks = masks[:maxMasks]
	}
	scheme := isgc.New(place, seed)
	var decode []float64
	var aggregate time.Duration
	for _, mask := range masks {
		start := time.Now()
		chosen := scheme.Decode(mask)
		mid := time.Now()
		if _, _, err := scheme.Aggregate(chosen, coded); err != nil {
			return 0, 0, 0
		}
		decode = append(decode, mid.Sub(start).Seconds()*usPerSec)
		aggregate += time.Since(mid)
	}
	return quantile(decode, 0.5), quantile(decode, 0.95), ms(aggregate) / float64(max(len(masks), 1))
}

// probeCheckpoint times Store.Save of a payload the size of the run's
// parameters, in a fresh directory: mean ms per save.
func probeCheckpoint(params []float64, tmpDir string) (float64, error) {
	const calls = 20
	dir, err := os.MkdirTemp(tmpDir, "ckpt-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir, 0)
	if err != nil {
		return 0, err
	}
	st := checkpoint.State{Version: checkpoint.Version, Params: checkpoint.Float64sToBytes(params)}
	start := time.Now()
	for i := 1; i <= calls; i++ {
		st.Step = i
		if _, err := store.Save(i, &st); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(start)) / calls, nil
}

// probeLoader times Loader.Samples at the workload's batch size: µs/call.
func probeLoader(part *dataset.Dataset, batch int) (float64, error) {
	const calls = 2000
	l, err := dataset.NewLoader(part, batch, 1)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for t := 0; t < calls; t++ {
		l.Samples(t)
	}
	return time.Since(start).Seconds() * usPerSec / calls, nil
}

// procStats brackets a traced pass with the runtime's GC counters.
type procStats struct {
	before, after runtime.MemStats
}

func (p *procStats) begin() { runtime.ReadMemStats(&p.before) }
func (p *procStats) end()   { runtime.ReadMemStats(&p.after) }

func (p *procStats) fill(m map[string]float64, rec *recorder) {
	m["proc.cpu_ms_per_step"] = ms(rec.cpu1-rec.cpu0) / float64(len(rec.ticks)-1-rec.warmup)
	m["proc.gc_cycles"] = float64(p.after.NumGC - p.before.NumGC)
	m["proc.gc_pause_ms"] = float64(p.after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
	m["proc.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where there is none).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (sp *fleetShape) layers(run *fleetRun, baseRate float64, in *fleetInputs, o *options) map[string]float64 {
	rec := run.rec
	from, to := rec.warmup, len(rec.ticks)-1
	m := map[string]float64{}
	recover := durationsMS(rec.recoverDur[from:to])
	m["engine.recover_p50_ms"] = quantile(recover, 0.5)
	m["engine.recover_p95_ms"] = quantile(recover, 0.95)
	m["isgc.decode_p50_us"], m["isgc.decode_p95_us"], m["isgc.aggregate_ms"] =
		probeDecode(run.place, o.seed, rec.avail[from:to], in.coded)
	m["isgc.alpha_over_upper"] = trace.Mean(run.alpha)
	m["placement.build_ms"] = ms(run.build)
	run.proc.fill(m, rec)
	// What a fleet step spends outside Recover is the harness itself: the
	// mask update, the parameter update and the correctness check.
	tick := trace.Mean(rec.rawIntervals()) * msPerSec
	m["bench.unaccounted_ms"] = tick - trace.Mean(recover)
	m["bench.unaccounted_frac"] = (tick - trace.Mean(recover)) / tick
	m["bench.trace_overhead_frac"] = 1 - rec.stepsPerSecond()/baseRate
	return m
}
