// Package trace records and summarizes experiment metrics: per-step
// records from training runs, aggregate statistics (mean, percentiles),
// and rendering of result series as aligned ASCII tables or CSV — the
// output surface for every figure reproduction in this repository.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// StepRecord captures one training step.
type StepRecord struct {
	Step int
	// Available is the number of non-straggling workers the master used.
	Available int
	// Chosen is |I|, the decoded worker set size.
	Chosen int
	// RecoveredFraction is the fraction of dataset partitions represented
	// in the recovered gradient ĝ.
	RecoveredFraction float64
	// Partitions lists the recovered partition indices (sorted); nil when
	// the producer does not track them.
	Partitions []int
	// Alive is the number of workers the producer believed reachable when
	// the step's gather ended (0 when the producer does not track
	// liveness, e.g. the in-process engine where workers cannot die).
	Alive int
	// Degraded reports that the gather shrank its wait target below the
	// configured one because too few workers were alive — the graceful-
	// degradation path of the fault-tolerant cluster runtime.
	Degraded bool
	// Loss is the training loss after the update.
	Loss float64
	// Accuracy is the training accuracy after the update (0 when the
	// workload is not a classifier or the producer does not track it).
	Accuracy float64
	// Elapsed is the simulated (or measured) wall time of the step.
	Elapsed time.Duration
}

// Run accumulates the records of one training run.
type Run struct {
	Records []StepRecord
}

// Append adds a record.
func (r *Run) Append(rec StepRecord) { r.Records = append(r.Records, rec) }

// Steps returns the number of recorded steps.
func (r *Run) Steps() int { return len(r.Records) }

// TotalTime returns the summed per-step elapsed time.
func (r *Run) TotalTime() time.Duration {
	var t time.Duration
	for _, rec := range r.Records {
		t += rec.Elapsed
	}
	return t
}

// MeanStepTime returns TotalTime / Steps (0 for an empty run).
func (r *Run) MeanStepTime() time.Duration {
	if len(r.Records) == 0 {
		return 0
	}
	return r.TotalTime() / time.Duration(len(r.Records))
}

// MeanRecovered returns the mean recovered fraction across steps.
func (r *Run) MeanRecovered() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	s := 0.0
	for _, rec := range r.Records {
		s += rec.RecoveredFraction
	}
	return s / float64(len(r.Records))
}

// PartitionInclusion returns, for each partition index in [0, n), the
// fraction of steps whose recovered gradient covered it. Records without
// partition tracking contribute nothing.
func (r *Run) PartitionInclusion(n int) []float64 {
	out := make([]float64, n)
	if len(r.Records) == 0 {
		return out
	}
	for _, rec := range r.Records {
		for _, d := range rec.Partitions {
			if d >= 0 && d < n {
				out[d]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(r.Records))
	}
	return out
}

// DegradedSteps counts the steps whose gather ran in degraded mode
// (fewer live workers than the configured wait target).
func (r *Run) DegradedSteps() int {
	n := 0
	for _, rec := range r.Records {
		if rec.Degraded {
			n++
		}
	}
	return n
}

// LatencySummary holds step-latency order statistics of a run.
type LatencySummary struct {
	P50 time.Duration
	P95 time.Duration
	P99 time.Duration
}

func (s LatencySummary) String() string {
	return fmt.Sprintf("p50=%v p95=%v p99=%v",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond))
}

// LatencySummary returns the p50/p95/p99 of the per-step elapsed times
// (all zero for an empty run).
func (r *Run) LatencySummary() LatencySummary {
	if len(r.Records) == 0 {
		return LatencySummary{}
	}
	xs := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		xs[i] = float64(rec.Elapsed)
	}
	return LatencySummary{
		P50: time.Duration(Percentile(xs, 50)),
		P95: time.Duration(Percentile(xs, 95)),
		P99: time.Duration(Percentile(xs, 99)),
	}
}

// FinalLoss returns the last recorded loss (NaN for an empty run).
func (r *Run) FinalLoss() float64 {
	if len(r.Records) == 0 {
		return math.NaN()
	}
	return r.Records[len(r.Records)-1].Loss
}

// Losses returns the loss series.
func (r *Run) Losses() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Loss
	}
	return out
}

// Summary statistics ------------------------------------------------------

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. Empty input yields NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table rendering ----------------------------------------------------------

// Table is a simple experiment-result table with a caption, column headers
// and string cells.
type Table struct {
	Caption string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given caption and headers.
func NewTable(caption string, headers ...string) *Table {
	return &Table{Caption: caption, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Caption)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting — callers
// must keep cells comma-free, which all numeric tables here do).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
