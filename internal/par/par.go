// Package par is the process's one fork-join primitive for compute: a job
// cut into a fixed number of blocks runs on the calling goroutine and up to
// GOMAXPROCS−1 helper goroutines the package keeps parked for the whole
// process.
//
// The caller claims blocks from an atomic counter until none is left;
// helpers join late or not at all and claim from the same counter. Which
// goroutine runs a block is therefore up to the scheduler, so a job whose
// result must not depend on the core count writes each block's result to
// the block's own slot and combines the slots in block order afterwards.
// Nothing here allocates once a Fork has run a job with helpers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Blocks is a job cut into blocks: Block(b) does block b. Blocks of one job
// may run concurrently and in any order, each exactly once.
type Blocks interface {
	Block(b int)
}

// Fork runs one job at a time over the caller and the shared helpers. The
// zero value is ready to use; a Fork must not be copied after its first
// Run. Different Forks run concurrently, and a block may Run a job of
// another Fork (a nested job): the caller of each job claims blocks itself
// and waits only for helpers already inside, so no nesting can deadlock.
type Fork struct {
	// Set by Run before state opens; read-only while it is open.
	work   Blocks
	blocks int

	next  atomic.Int64 // the next block to claim
	state atomic.Int64 // forkOpen | the number of helpers inside
	wake  chan struct{}
}

// forkOpen marks a Fork helpers may join: from the start of a Run until
// its caller runs out of blocks to claim.
const forkOpen = 1 << 62

// posts carries open Forks to the helpers. A Fork is posted once per helper
// its job may use; a post that finds the Fork closed is dropped, and one
// that finds a later job of the same Fork open joins that one, which is as
// good. The buffer holds the posts of many jobs at once (each posts at most
// GOMAXPROCS−1), so a post never waits for a helper to take it; a post that
// finds the buffer full is skipped, which costs parallelism but never a
// result.
//
// There are at most GOMAXPROCS−1 helpers over the process's life (the most
// any job asked for), each parked on posts between jobs.
var (
	posts        = make(chan *Fork, 64)
	helpersMu    sync.Mutex
	helpersReady atomic.Int32
)

// startHelpers grows the package's helper goroutines to k.
func startHelpers(k int) {
	helpersMu.Lock()
	defer helpersMu.Unlock()
	for int(helpersReady.Load()) < k {
		go func() {
			for f := range posts {
				f.help()
			}
		}()
		helpersReady.Add(1)
	}
}

// Run calls work.Block(b) once for every b in [0, blocks), on the calling
// goroutine and up to min(GOMAXPROCS, blocks)−1 helpers, and returns when
// every block is done.
func (f *Fork) Run(work Blocks, blocks int) {
	h := min(runtime.GOMAXPROCS(0), blocks) - 1
	if h <= 0 {
		for b := 0; b < blocks; b++ {
			work.Block(b)
		}
		return
	}
	if f.wake == nil {
		f.wake = make(chan struct{}, 1)
	}
	f.work, f.blocks = work, blocks
	f.next.Store(0)
	f.state.Store(forkOpen)
	if int(helpersReady.Load()) < h {
		startHelpers(h)
	}
	for ; h > 0; h-- {
		select {
		case posts <- f:
		default:
		}
	}
	f.claim()
	for {
		st := f.state.Load()
		if f.state.CompareAndSwap(st, st&^forkOpen) {
			if st != forkOpen {
				<-f.wake // the last helper out sends
			}
			break
		}
	}
	f.work = nil
}

// help joins f if it is open, claims blocks until none is left, and wakes
// the caller if it was the last helper out of a closed Fork.
func (f *Fork) help() {
	for {
		st := f.state.Load()
		if st&forkOpen == 0 {
			return
		}
		if f.state.CompareAndSwap(st, st+1) {
			break
		}
	}
	f.claim()
	if f.state.Add(-1) == 0 {
		f.wake <- struct{}{}
	}
}

// claim runs blocks until every block is claimed.
func (f *Fork) claim() {
	for {
		b := int(f.next.Add(1) - 1)
		if b >= f.blocks {
			return
		}
		f.work.Block(b)
	}
}
