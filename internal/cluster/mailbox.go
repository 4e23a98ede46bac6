package cluster

import (
	"sync"
	"time"
)

// stepWork is one broadcast step waiting for the worker's compute loop.
type stepWork struct {
	step   int
	params []float64
	// drop records a FaultDrop rolled for this step at receipt: the step is
	// computed, then its upload is lost.
	drop bool
}

// endKind says why a connection's reader stopped feeding the mailbox.
type endKind int

const (
	endNone endKind = iota
	// endStop is the master's word that the run is over: every step still
	// queued or in progress is abandoned.
	endStop
	// endCrash and endDisconnect are injected faults rolled on a received
	// step; endConnLost is a failed recv (remote close, Stop(), a genuine
	// error). None of the three abandons anything: the worker dies, or the
	// master re-delivers its in-flight step on the rejoin.
	endCrash
	endDisconnect
	endConnLost
)

// abandonment phases — the label values of
// isgc_worker_steps_abandoned_total.
const (
	phaseQueued  = "queued"  // superseded in the mailbox, never computed
	phaseDelay   = "delay"   // injected delay cut short
	phasePresend = "presend" // computed (and delayed) but not uploaded
)

// mailbox is the hand-off between one connection's reader goroutine and the
// worker's compute loop. The reader always drains the socket, so the master's
// next MsgStep doubles as the cancel signal for everything older: a step t is
// superseded once a step s > t has arrived on the same connection, and the
// mailbox keeps only the newest step (twice, if the master re-delivered it).
// The reader's exit reason rides the same mailbox so stop, faults and
// connection loss interrupt a wait exactly as a newer step does.
//
// A mailbox lives as long as its connection: step numbers are only monotone
// per connection (a restored master replays earlier steps), so a rejoin
// starts from a fresh one.
type mailbox struct {
	// vecs recycles params vectors: reader → mailbox → compute → reader.
	vecs vecPool
	// wake holds one pending "state changed" signal for the compute loop;
	// it re-reads the state under mu after every receive, so dropped extras
	// cost nothing.
	wake chan struct{}
	// done is closed when the reader goroutine has exited.
	done chan struct{}

	mu      sync.Mutex
	steps   []stepWork // live steps, oldest first
	newest  int        // highest step received (-1 = none)
	end     endKind
	endStep int
}

// newMailbox returns the mailbox of a connection whose steps carry dim-long
// params.
func newMailbox(dim int) *mailbox {
	return &mailbox{newest: -1,
		wake: make(chan struct{}, 1), done: make(chan struct{}),
		// One being read into, one queued or computed on.
		vecs: vecPool{dim: dim, free: make(chan []float64, 2)}}
}

func (mb *mailbox) poke() {
	select {
	case mb.wake <- struct{}{}:
	default:
	}
}

// supersededLocked reports whether a newer broadcast has made step moot.
func (mb *mailbox) supersededLocked(step int) bool { return mb.newest > step }

// put queues a received step and evicts every queued step it supersedes (the
// arrival itself when it came in behind a newer one). It returns the evicted
// step numbers — the "queued" abandonments.
func (mb *mailbox) put(st stepWork) []int {
	mb.mu.Lock()
	if st.step > mb.newest {
		mb.newest = st.step
	}
	var evicted []int
	keep := mb.steps[:0]
	for _, q := range append(mb.steps, st) {
		if mb.supersededLocked(q.step) {
			evicted = append(evicted, q.step)
			mb.vecs.put(q.params)
			continue
		}
		keep = append(keep, q)
	}
	mb.steps = keep
	mb.mu.Unlock()
	mb.poke()
	return evicted
}

// finish records why the reader stopped. A stop abandons what is still
// queued and returns those step numbers.
func (mb *mailbox) finish(kind endKind, step int) []int {
	mb.mu.Lock()
	mb.end, mb.endStep = kind, step
	var evicted []int
	if kind == endStop {
		for _, q := range mb.steps {
			evicted = append(evicted, q.step)
		}
		mb.steps = nil
	}
	mb.mu.Unlock()
	mb.poke()
	return evicted
}

// next blocks until there is a live step to serve or the reader has ended;
// the end wins, since nothing queued behind it can still be uploaded.
func (mb *mailbox) next() (st stepWork, end endKind, endStep int) {
	for {
		mb.mu.Lock()
		switch {
		case mb.end != endNone:
			end, endStep = mb.end, mb.endStep
			mb.mu.Unlock()
			return stepWork{}, end, endStep
		case len(mb.steps) > 0:
			st = mb.steps[0]
			// Shift down instead of re-slicing so the backing array is
			// reused for the life of the connection.
			mb.steps = mb.steps[:copy(mb.steps, mb.steps[1:])]
			mb.mu.Unlock()
			return st, endNone, 0
		}
		mb.mu.Unlock()
		<-mb.wake
	}
}

// check reports whether an in-progress step is still worth finishing, and —
// when it is not — whether that counts as an abandonment (a newer step or
// stop) rather than an interruption the master will re-deliver.
func (mb *mailbox) check(step int) (live, abandoned bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	switch {
	case mb.end == endStop:
		return false, true
	case mb.end != endNone:
		return false, false
	case mb.supersededLocked(step):
		return false, true
	}
	return true, false
}

// sleep waits out an injected delay for step. It returns (true, false) once
// the whole delay has elapsed, or check's verdict the moment the step stops
// being live — a newer step, stop, a fault or a lost connection all cut the
// wait short.
func (mb *mailbox) sleep(step int, d time.Duration) (live, abandoned bool) {
	if d <= 0 {
		return true, false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		if live, abandoned = mb.check(step); !live {
			return live, abandoned
		}
		select {
		case <-t.C:
			return true, false
		case <-mb.wake:
		}
	}
}

// reserve is the connection's payloadSink: a step's params go into a recycled
// buffer (a fresh one for a length other than the model's), nothing else.
func (mb *mailbox) reserve(fh frameHeader) []float64 {
	switch {
	case fh.kind != MsgStep:
		return nil
	case fh.dim != mb.vecs.dim:
		return make([]float64, fh.dim)
	}
	return mb.vecs.get()
}
