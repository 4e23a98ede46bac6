package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("expected error for empty sample list")
	}
	if _, err := New([]Sample{{X: nil, Y: 0}}); err == nil {
		t.Error("expected error for zero-dim features")
	}
	if _, err := New([]Sample{{X: []float64{1}}, {X: []float64{1, 2}}}); err == nil {
		t.Error("expected error for inconsistent dims")
	}
	d, err := New([]Sample{{X: []float64{1, 2}, Y: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Dim() != 2 || d.At(0).Y != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestNewCopiesSlice(t *testing.T) {
	samples := []Sample{{X: []float64{1}, Y: 1}, {X: []float64{2}, Y: 2}}
	d, err := New(samples)
	if err != nil {
		t.Fatal(err)
	}
	samples[0] = Sample{X: []float64{9}, Y: 9}
	if d.At(0).Y == 9 {
		t.Fatal("New must copy the sample slice")
	}
}

func TestSyntheticLinearShapeAndSignal(t *testing.T) {
	d, w, err := SyntheticLinear(200, 5, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 200 || d.Dim() != 5 || len(w) != 5 {
		t.Fatal("wrong shapes")
	}
	// y should correlate with ⟨w, x⟩ strongly at low noise.
	var num, den1, den2 float64
	for i := 0; i < d.Len(); i++ {
		s := d.At(i)
		pred := 0.0
		for j, wj := range w {
			pred += wj * s.X[j]
		}
		num += pred * s.Y
		den1 += pred * pred
		den2 += s.Y * s.Y
	}
	if corr := num / math.Sqrt(den1*den2); corr < 0.98 {
		t.Fatalf("correlation %v, want ≥ 0.98", corr)
	}
}

func TestSyntheticLinearErrors(t *testing.T) {
	if _, _, err := SyntheticLinear(0, 5, 0.1, 1); err == nil {
		t.Error("expected error for m=0")
	}
	if _, _, err := SyntheticLinear(5, 0, 0.1, 1); err == nil {
		t.Error("expected error for dim=0")
	}
}

func TestSyntheticLinearDeterminism(t *testing.T) {
	a, wa, _ := SyntheticLinear(50, 3, 0.1, 7)
	b, wb, _ := SyntheticLinear(50, 3, 0.1, 7)
	for j := range wa {
		if wa[j] != wb[j] {
			t.Fatal("weights differ under same seed")
		}
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Y != b.At(i).Y {
			t.Fatal("samples differ under same seed")
		}
	}
	c, _, _ := SyntheticLinear(50, 3, 0.1, 8)
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Y != c.At(i).Y {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different data")
	}
}

func TestSyntheticClustersBalancedClasses(t *testing.T) {
	d, err := SyntheticClusters(400, 8, 4, 3.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < d.Len(); i++ {
		counts[int(d.At(i).Y)]++
	}
	if len(counts) != 4 {
		t.Fatalf("found %d classes, want 4", len(counts))
	}
	for k, c := range counts {
		if c != 100 {
			t.Fatalf("class %d has %d samples, want 100", k, c)
		}
	}
}

func TestSyntheticClustersSeparation(t *testing.T) {
	// With high separation, per-class means should be far apart relative
	// to intra-class spread.
	d, err := SyntheticClusters(1000, 4, 2, 10.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	means := make([][]float64, 2)
	counts := make([]int, 2)
	for k := range means {
		means[k] = make([]float64, 4)
	}
	for i := 0; i < d.Len(); i++ {
		s := d.At(i)
		k := int(s.Y)
		counts[k]++
		for j, x := range s.X {
			means[k][j] += x
		}
	}
	dist := 0.0
	for j := 0; j < 4; j++ {
		diff := means[0][j]/float64(counts[0]) - means[1][j]/float64(counts[1])
		dist += diff * diff
	}
	if math.Sqrt(dist) < 5 {
		t.Fatalf("cluster mean distance %v too small for sep=10", math.Sqrt(dist))
	}
}

func TestSyntheticClustersErrors(t *testing.T) {
	cases := []struct{ m, dim, classes int }{
		{0, 4, 2}, {10, 0, 2}, {10, 4, 1}, {3, 4, 5},
	}
	for _, tc := range cases {
		if _, err := SyntheticClusters(tc.m, tc.dim, tc.classes, 1, 1); err == nil {
			t.Errorf("expected error for m=%d dim=%d classes=%d", tc.m, tc.dim, tc.classes)
		}
	}
}

func TestSortByLabel(t *testing.T) {
	d, err := SyntheticClusters(120, 4, 3, 2.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := d.SortByLabel()
	if s.Len() != d.Len() || s.Dim() != d.Dim() {
		t.Fatal("shape changed")
	}
	for i := 1; i < s.Len(); i++ {
		if s.At(i).Y < s.At(i-1).Y {
			t.Fatalf("not sorted at %d: %v after %v", i, s.At(i).Y, s.At(i-1).Y)
		}
	}
	// Original untouched (SyntheticClusters shuffles, so it is unsorted).
	sorted := true
	for i := 1; i < d.Len(); i++ {
		if d.At(i).Y < d.At(i-1).Y {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("original dataset unexpectedly sorted — copy semantics untestable")
	}
	// Partitioning the sorted set yields class-skewed partitions: the
	// first partition must be single-class.
	parts, err := s.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	first := parts[0]
	for i := 0; i < first.Len(); i++ {
		if first.At(i).Y != first.At(0).Y {
			t.Fatal("first partition of label-sorted data must be single-class")
		}
	}
}

func TestPartition(t *testing.T) {
	d, _, err := SyntheticLinear(40, 3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d partitions", len(parts))
	}
	total := 0
	for _, p := range parts {
		if p.Len() != 10 || p.Dim() != 3 {
			t.Fatalf("partition len=%d dim=%d", p.Len(), p.Dim())
		}
		total += p.Len()
	}
	if total != 40 {
		t.Fatal("partitions must cover the dataset")
	}
	// Contiguity: partition 1's first sample is dataset sample 10.
	if parts[1].At(0).Y != d.At(10).Y {
		t.Fatal("partitions must be contiguous slices")
	}
}

func TestPartitionErrors(t *testing.T) {
	d, _, _ := SyntheticLinear(10, 2, 0, 1)
	if _, err := d.Partition(0); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := d.Partition(3); err == nil {
		t.Error("expected error for indivisible split")
	}
}

func TestLoaderValidation(t *testing.T) {
	d, _, _ := SyntheticLinear(10, 2, 0, 1)
	if _, err := NewLoader(nil, 4, 1); err == nil {
		t.Error("expected error for nil partition")
	}
	if _, err := NewLoader(d, 0, 1); err == nil {
		t.Error("expected error for batch=0")
	}
	l, err := NewLoader(d, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.BatchSize() != 10 {
		t.Fatalf("oversized batch must clamp to partition size, got %d", l.BatchSize())
	}
}

// The paper's controlled-seed property: two loaders over the same partition
// with the same seed (e.g. on two different workers replicating the
// partition) must see identical batches at every step.
func TestLoaderReplicaConsistency(t *testing.T) {
	d, _, _ := SyntheticLinear(64, 3, 0.1, 2)
	l1, err := NewLoader(d, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLoader(d, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		b1, b2 := l1.Batch(step), l2.Batch(step)
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("step %d: replica batches differ", step)
			}
		}
	}
}

func TestLoaderBatchProperties(t *testing.T) {
	d, _, _ := SyntheticLinear(32, 3, 0.1, 2)
	l, err := NewLoader(d, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for step := 0; step < 20; step++ {
		b := l.Batch(step)
		if len(b) != 8 {
			t.Fatalf("batch size %d", len(b))
		}
		dup := map[int]bool{}
		key := ""
		for _, i := range b {
			if i < 0 || i >= 32 {
				t.Fatalf("index %d out of range", i)
			}
			if dup[i] {
				t.Fatalf("duplicate index %d in batch", i)
			}
			dup[i] = true
			key += string(rune(i)) + ","
		}
		seen[key] = true
	}
	if len(seen) < 15 {
		t.Fatalf("batches should differ across steps, got %d distinct of 20", len(seen))
	}
	s := l.Samples(0)
	if len(s) != 8 || len(s[0].X) != 3 {
		t.Fatal("Samples resolution wrong")
	}
}

// Property: batch composition is a pure function of (seed, step).
func TestQuickLoaderPure(t *testing.T) {
	d, _, _ := SyntheticLinear(40, 2, 0.1, 3)
	f := func(seed int64, step uint8) bool {
		l1, err := NewLoader(d, 5, seed)
		if err != nil {
			return false
		}
		l2, err := NewLoader(d, 5, seed)
		if err != nil {
			return false
		}
		a, b := l1.Batch(int(step)), l2.Batch(int(step))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The reused generator and index buffer must reproduce rand.Perm draw for
// draw: for 200 (seed, t) pairs, out of order and on one Loader, the batch
// is the head of rand.New(rand.NewSource(s)).Perm(n) for the mixed seed s.
func TestLoaderBatchMatchesRandPerm(t *testing.T) {
	const mix = int64(-0x61c8864680b583eb)
	d, _, _ := SyntheticLinear(37, 2, 0.1, 3)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		seed, batch := rng.Int63()-rng.Int63(), 1+rng.Intn(37)
		l, err := NewLoader(d, batch, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			step := rng.Intn(1000)
			want := rand.New(rand.NewSource(seed ^ (int64(step)+1)*mix)).Perm(d.Len())[:batch]
			got := l.Batch(step)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: batch %v, rand.Perm gives %v", seed, step, got, want)
			}
			for i, s := range l.Samples(step) {
				if &s.X[0] != &d.At(want[i]).X[0] || s.Y != d.At(want[i]).Y {
					t.Fatalf("seed %d step %d: sample %d is not partition sample %d", seed, step, i, want[i])
				}
			}
		}
	}
}

// After construction a Loader allocates nothing per batch.
func TestLoaderSamplesAllocationFree(t *testing.T) {
	d, _, _ := SyntheticLinear(64, 3, 0.1, 2)
	l, err := NewLoader(d, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	if allocs := testing.AllocsPerRun(50, func() { l.Samples(step); step++ }); allocs != 0 {
		t.Fatalf("Loader.Samples allocated %v times per call, want 0", allocs)
	}
}
