package main

import (
	"runtime"
	"sync"
	"time"
)

// hostClock measures how fast the host runs the benchmark process right
// now, by timing a fixed arithmetic kernel on every P at once.
//
// The sandbox the driver measures in is two vCPUs of a shared host whose
// speed changes by up to 2x for seconds to minutes at a time: the two vCPUs
// come to share one core, or a core's clock drops. CPU-bound step times then
// move by 30–65% while the program does exactly the same work, and no
// statistic over one run, or over ten, removes a state that outlasts them.
// So the recorder reads this clock every calEvery steps and reports step
// times at the reference speed: a step that took T while the kernel took c
// counts as T·hostRefSeconds/c.
//
// The kernel lives here, in the benchmark, and calls nothing of the system
// under test, so no change to the system can move it. It is all arithmetic on
// cache-resident arrays; a step that is partly bound by memory or the kernel's
// socket path slows less than it does, and is left with the difference
// (README.md gives the spreads measured with and without the rescaling).
type hostClock struct {
	lanes []*calLane
}

// hostRefSeconds is the kernel's time at the reference speed: about what
// the sandbox this benchmark was sized on takes in its usual state. It sets
// the scale of the reported times, nothing else.
const hostRefSeconds = 0.85e-3

// calEvery is the number of steps between two readings of the host clock.
const calEvery = 10

// calLane is one P's share of the kernel, on arrays of its own.
type calLane struct {
	x, y []float64
	sink float64
}

func newHostClock() *hostClock {
	h := &hostClock{}
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		l := &calLane{x: make([]float64, 4096), y: make([]float64, 4096)}
		for j := range l.x {
			l.x[j], l.y[j] = float64(j&15)*0.25, float64(j&7)*0.5
		}
		h.lanes = append(h.lanes, l)
	}
	return h
}

// run is 300 dot products of length 4096, four accumulators wide.
func (l *calLane) run() {
	t := 0.0
	for rep := 0; rep < 300; rep++ {
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		x, y := l.x, l.y[:len(l.x)]
		for j := 0; j+3 < len(x); j += 4 {
			s0 += x[j] * y[j]
			s1 += x[j+1] * y[j+1]
			s2 += x[j+2] * y[j+2]
			s3 += x[j+3] * y[j+3]
		}
		t += s0 + s1 + s2 + s3
	}
	l.sink += t
}

// sample runs the kernel once on every P and returns the wall time it took.
func (h *hostClock) sample() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, l := range h.lanes[1:] {
		wg.Add(1)
		go func() { defer wg.Done(); l.run() }()
	}
	h.lanes[0].run()
	wg.Wait()
	return time.Since(start)
}
