package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// counts is a job whose block b bumps ran[b].
type counts struct{ ran []atomic.Int32 }

func (c *counts) Block(b int) { c.ran[b].Add(1) }

// eachGOMAXPROCS runs fn at GOMAXPROCS 1, 2 and 4 and restores the setting.
func eachGOMAXPROCS(fn func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

// TestForkRunsEachBlockOnce: every block of every job runs exactly once,
// whatever the block count against the helper count, and Run returns only
// after the last one.
func TestForkRunsEachBlockOnce(t *testing.T) {
	var f Fork
	eachGOMAXPROCS(func(procs int) {
		for _, blocks := range []int{0, 1, 2, 3, 7, 64} {
			for run := 0; run < 50; run++ {
				c := &counts{ran: make([]atomic.Int32, blocks)}
				f.Run(c, blocks)
				for b := range c.ran {
					if got := c.ran[b].Load(); got != 1 {
						t.Fatalf("GOMAXPROCS=%d blocks=%d run %d: block %d ran %d times", procs, blocks, run, b, got)
					}
				}
			}
		}
	})
}

// nested is a job whose block i runs a four-block job of its own Fork.
type nested struct {
	inner [4]Fork
	slots [4]counts
}

func (n *nested) Block(i int) { n.inner[i].Run(&n.slots[i], len(n.slots[i].ran)) }

// TestForkNested: a block may run a job of another Fork; neither level
// deadlocks, whichever goroutines the helpers are busy on, and every inner
// block runs once.
func TestForkNested(t *testing.T) {
	eachGOMAXPROCS(func(procs int) {
		var f Fork
		for run := 0; run < 100; run++ {
			n := &nested{}
			for i := range n.slots {
				n.slots[i].ran = make([]atomic.Int32, 4)
			}
			f.Run(n, len(n.slots))
			for i := range n.slots {
				for j := range n.slots[i].ran {
					if got := n.slots[i].ran[j].Load(); got != 1 {
						t.Fatalf("GOMAXPROCS=%d run %d: inner block %d.%d ran %d times", procs, run, i, j, got)
					}
				}
			}
		}
	})
}

// TestForkAllocationFree: a warm Fork's Run of a two-block job allocates
// nothing — every worker runs one each step.
func TestForkAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	var f Fork
	c := &counts{ran: make([]atomic.Int32, 2)}
	eachGOMAXPROCS(func(procs int) {
		if allocs := testing.AllocsPerRun(50, func() { f.Run(c, 2) }); allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: Run of two blocks makes %v allocations per call", procs, allocs)
		}
	})
	if a, b := c.ran[0].Load(), c.ran[1].Load(); a != 153 || b != 153 {
		t.Fatalf("blocks ran %d and %d times, want 153 each", a, b)
	}
}
