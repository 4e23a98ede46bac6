package model

import (
	"fmt"

	"isgc/internal/dataset"
)

// CheckData reports whether every sample of d fits m: the feature dimension
// equals the model's and, for the classifiers, every label is a class
// index. The kernels index rows by stride and logits by label without
// looking, so entry points (engine.Train, cluster.NewMaster, NewWorker) call
// this once and turn a mismatch into a configuration error instead of a
// panic inside a compute goroutine. Models other than the four concrete
// ones of this package pass unchecked.
func CheckData(m Model, d *dataset.Dataset) error {
	var features, classes int
	switch m := m.(type) {
	case LinearRegression:
		features = m.Features
	case LogisticRegression:
		features, classes = m.Features, 2
	case SoftmaxRegression:
		features, classes = m.Features, m.Classes
	case MLP:
		features, classes = m.Features, m.Classes
	default:
		return nil
	}
	if d.Dim() != features {
		return fmt.Errorf("model: %v takes %d features, dataset has %d", m, features, d.Dim())
	}
	if classes == 0 {
		return nil
	}
	for i := 0; i < d.Len(); i++ {
		// The negated form also rejects NaN.
		if y := d.At(i).Y; !(y >= 0 && y < float64(classes)) || y != float64(int(y)) {
			return fmt.Errorf("model: sample %d has label %v, %v needs a class index in [0, %d)", i, y, m, classes)
		}
	}
	return nil
}
