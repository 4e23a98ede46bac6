package model

import (
	"math"
	"strings"
	"testing"

	"isgc/internal/dataset"
)

// labelled builds a dataset of the given labels over dim-wide features.
func labelled(t *testing.T, dim int, labels ...float64) *dataset.Dataset {
	t.Helper()
	samples := make([]dataset.Sample, len(labels))
	for i, y := range labels {
		samples[i] = dataset.Sample{X: make([]float64, dim), Y: y}
	}
	d, err := dataset.New(samples)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wrapped hides a concrete model from CheckData's type switch.
type wrapped struct{ Model }

// TestCheckData: every way a dataset can disagree with one of the four
// concrete models is an error naming the model; matching data, and any
// model CheckData does not know, pass.
func TestCheckData(t *testing.T) {
	const f, k = 4, 3
	classifiers := []Model{
		SoftmaxRegression{Features: f, Classes: k},
		MLP{Features: f, Hidden: 5, Classes: k},
	}
	for _, m := range append([]Model{LinearRegression{Features: f}, LogisticRegression{Features: f}}, classifiers...) {
		if err := CheckData(m, labelled(t, f, 0, 1, 1, 0)); err != nil {
			t.Errorf("%v on matching data: %v", m, err)
		}
		for _, dim := range []int{f - 1, f + 1} {
			if err := CheckData(m, labelled(t, dim, 0, 1)); err == nil || !strings.Contains(err.Error(), m.String()) {
				t.Errorf("%v on %d-wide samples: err = %v", m, dim, err)
			}
		}
	}
	if err := CheckData(LinearRegression{Features: f}, labelled(t, f, -3.5, math.Inf(1))); err != nil {
		t.Errorf("regression targets are unconstrained: %v", err)
	}
	if err := CheckData(LogisticRegression{Features: f}, labelled(t, f, 0, 2)); err == nil {
		t.Error("logistic regression accepted label 2")
	}
	for _, m := range classifiers {
		if err := CheckData(m, labelled(t, f, 0, 1, k-1)); err != nil {
			t.Errorf("%v on labels 0..%d: %v", m, k-1, err)
		}
		for _, y := range []float64{k, -1, 0.5, math.NaN(), math.Inf(1), 1e300} {
			err := CheckData(m, labelled(t, f, 0, 1, y))
			if err == nil || !strings.Contains(err.Error(), "sample 2") {
				t.Errorf("%v on label %v: err = %v", m, y, err)
			}
		}
		if err := CheckData(wrapped{m}, labelled(t, f+1, k)); err != nil {
			t.Errorf("wrapped model must pass unchecked: %v", err)
		}
	}
	if err := CheckData(Constant{D: 8}, labelled(t, 2, 7)); err != nil {
		t.Errorf("Constant must pass unchecked: %v", err)
	}
}
