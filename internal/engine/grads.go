package engine

import (
	"isgc/internal/dataset"
	"isgc/internal/model"
	"isgc/internal/par"
)

// PartitionGrads computes one step's per-partition mean gradients: the
// engine's for every partition a step needs, a cluster worker's for the
// partitions it stores. Partition d's gradient is model.Blocked's over its
// loader's batch for the step, written to Bufs[d], so it has the same bits
// whichever goroutine computes it and however many run: replicas on
// different workers and hosts, and the engine, agree bit for bit.
//
// A warm PartitionGrads allocates nothing. It runs one step at a time.
type PartitionGrads struct {
	Model   model.Model
	Loaders []*dataset.Loader // partition d's batches
	Bufs    [][]float64       // partition d's gradient; each Model.Dim() long

	// Set by Run before the job runs; read-only while it runs.
	parts   []int
	params  []float64
	step    int
	blocked []model.Blocked // partition d's evaluator
	fork    par.Fork
}

// Run computes the gradients of the given partitions for the step. With
// parallel set the partitions are the blocks of one job on the shared
// compute helpers; otherwise they run in order on the caller. Either way a
// partition's batch may itself be split over the helpers (model.Blocked).
func (g *PartitionGrads) Run(parts []int, params []float64, step int, parallel bool) {
	if g.blocked == nil {
		g.blocked = make([]model.Blocked, len(g.Loaders))
	}
	g.parts, g.params, g.step = parts, params, step
	if parallel {
		g.fork.Run(g, len(parts))
	} else {
		for k := range parts {
			g.Block(k)
		}
	}
	g.parts, g.params = nil, nil
}

// Block computes the gradient of the job's k-th partition.
func (g *PartitionGrads) Block(k int) {
	d := g.parts[k]
	g.blocked[d].GradInto(g.Bufs[d], g.params, g.Model, g.Loaders[d].Samples(g.step))
}
