package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
)

// benchDim is the gradient dimension the codec benchmarks use: 2^16
// float64s (512 KiB of payload), the scale at which the paper's ResNet-18
// stand-ins make serialization a first-order cost in the gather.
const benchDim = 1 << 16

func benchGradient() *Envelope {
	coded := make([]float64, benchDim)
	for i := range coded {
		coded[i] = float64(i) * 0.125
	}
	return &Envelope{Kind: MsgGradient, Worker: 3, Step: 7, Coded: coded,
		ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 5_000_000}
}

// BenchmarkWireCodec measures the frame codec on the hot-path message (a
// 2^16-dim coded gradient) in the steady state of a long-lived connection:
// the standalone encoder into a reused buffer, and a round trip through the
// receiver's reusable payload/vector scratch.
func BenchmarkWireCodec(b *testing.B) {
	e := benchGradient()

	b.Run("binary/encode", func(b *testing.B) {
		buf := make([]byte, 0, frameHeaderSize+8*benchDim)
		b.ReportAllocs()
		b.ResetTimer()
		var err error
		for i := 0; i < b.N; i++ {
			buf, err = AppendFrame(buf[:0], e)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})

	b.Run("binary/roundtrip", func(b *testing.B) {
		frame, err := EncodeFrame(e)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(frame)
		// A receive-side conn as the master runs it after the hello:
		// buffered reader, payload read into a free-list vector that
		// comes back once the gradient is used.
		vecs := &vecPool{dim: benchDim, free: make(chan []float64, 1)}
		c := &conn{r: bufio.NewReader(rd), sink: func(frameHeader) []float64 { return vecs.get() }}
		sendBuf := make([]byte, 0, len(frame))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sendBuf, err = AppendFrame(sendBuf[:0], e)
			if err != nil {
				b.Fatal(err)
			}
			rd.Reset(sendBuf)
			c.r.Reset(rd)
			got, err := c.recv()
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Coded) != benchDim {
				b.Fatal("bad decode")
			}
			vecs.put(got.Coded)
		}
	})
}

// TestGradientSendSteadyStateAllocs pins the send path's allocation
// contract: a gradient send builds its header in place and writes the
// vector's own memory behind it, so it allocates nothing.
func TestGradientSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := newConn(&sinkConn{discard: true}, 0, nil)
	e := benchGradient()
	send := func() {
		if err := c.send(e); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, send); avg != 0 {
		t.Errorf("a gradient send allocates %.1f objects in steady state, want 0", avg)
	}
}

// BenchmarkWorkerCompute measures the worker's per-step compute stage on
// a real dim≈2^16 MLP with c=4 partitions: the legacy allocating path
// (Grad per partition, sequential, fresh buffers) versus the pooled path
// computeStep now runs (GradInto into reusable buffers, partitions
// concurrent on the shared compute helpers, SumEncoder buffer reuse).
func BenchmarkWorkerCompute(b *testing.B) {
	m := model.MLP{Features: 128, Hidden: 500, Classes: 4}
	params := m.InitParams(1)
	const c = 4
	rng := rand.New(rand.NewSource(2))
	batches := make([][]dataset.Sample, c)
	for j := range batches {
		batches[j] = make([]dataset.Sample, 16)
		for i := range batches[j] {
			x := make([]float64, m.Features)
			for k := range x {
				x[k] = rng.NormFloat64()
			}
			batches[j][i] = dataset.Sample{X: x, Y: float64(rng.Intn(m.Classes))}
		}
	}

	b.Run("legacy-sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			local := make([][]float64, c)
			for j := range batches {
				local[j] = m.Grad(params, batches[j])
			}
			out := make([]float64, m.Dim())
			for _, g := range local {
				for k, x := range g {
					out[k] += x
				}
			}
		}
	})

	b.Run("pooled-concurrent", func(b *testing.B) {
		loaders := make([]*dataset.Loader, c)
		for j := range loaders {
			part, err := dataset.New(batches[j])
			if err == nil {
				loaders[j], err = dataset.NewLoader(part, len(batches[j]), int64(j))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		g := &engine.PartitionGrads{Model: m, Loaders: loaders, Bufs: make([][]float64, c)}
		local := make([]int, c)
		for j := range local {
			local[j] = j
			g.Bufs[j] = make([]float64, m.Dim())
		}
		encode := SumEncoder()
		g.Run(local, params, 0, true) // warm the scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Run(local, params, i, true)
			if _, err := encode(g.Bufs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchModel is a trivially cheap Model with a large parameter vector: the
// gather benchmark must measure the wire, not softmax arithmetic, so loss
// and gradient are O(dim) copies with no math worth profiling.
type benchModel struct{ dim int }

func (m benchModel) Dim() int { return m.dim }

func (m benchModel) InitParams(seed int64) []float64 { return make([]float64, m.dim) }

func (m benchModel) Loss(params []float64, batch []dataset.Sample) float64 { return 1 }

func (m benchModel) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.dim)
	m.GradInto(g, params, batch)
	return g
}

func (m benchModel) GradInto(g, params []float64, batch []dataset.Sample) {
	for i := range g {
		g[i] = 1e-6
	}
}

func (m benchModel) String() string { return fmt.Sprintf("bench(dim=%d)", m.dim) }

// BenchmarkGatherLatency is the end-to-end number behind the frame codec:
// one full training step — params broadcast to 4 workers, 4 coded-gradient
// uploads, decode, update — over real loopback TCP with a 2^16-dim
// parameter vector. b.N steps run inside one cluster so connection setup
// and the hello exchange are amortized away.
func BenchmarkGatherLatency(b *testing.B) {
	b.Run("binaryv1", func(b *testing.B) {
		st, err := engine.NewSyncSGD(4)
		if err != nil {
			b.Fatal(err)
		}
		mdl := benchModel{dim: benchDim}
		data, _, err := dataset.SyntheticLinear(64, 2, 0.1, 1)
		if err != nil {
			b.Fatal(err)
		}
		master, err := NewMaster(MasterConfig{
			Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
			LearningRate: 0.1, W: 4, MaxSteps: b.N, Seed: 42,
			AcceptTimeout: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		parts, err := data.Partition(4)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				pids := st.Partitions(i)
				loaders := make([]*dataset.Loader, len(pids))
				for j, d := range pids {
					var err error
					loaders[j], err = dataset.NewLoader(parts[d], 16, 42)
					if err != nil {
						b.Error(err)
						return
					}
				}
				wk, err := NewWorker(WorkerConfig{
					Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
					Model: mdl, Encode: SumEncoder(),
				})
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = wk.Run()
			}()
		}
		b.ResetTimer()
		if _, err := master.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		wg.Wait()
	})
}
