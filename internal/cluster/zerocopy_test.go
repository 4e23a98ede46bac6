package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/metrics"
)

// sameBits reports the first element where got and want differ in any bit
// (NaN payloads and the sign of zero included).
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d = %v (%#x), want %v (%#x)", i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// tcpPair returns the two ends of one loopback TCP connection, so the send
// side takes the vectored-write path a real socket offers.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// wirePaths runs f on the host's own payload path and on the portable one,
// which a little-endian host otherwise never takes.
func wirePaths(t *testing.T, f func(t *testing.T)) {
	native := payloadIsMemory
	defer func() { payloadIsMemory = native }()
	for _, path := range []struct {
		name   string
		memory bool
	}{{"host", native}, {"portable", false}} {
		payloadIsMemory = path.memory
		t.Run(path.name, f)
	}
}

// awkwardVector is n payload words that only survive a faithful byte copy:
// a NaN with a payload of its own, −0, infinities, a subnormal, then noise.
func awkwardVector(n int) []float64 {
	v := make([]float64, n)
	special := []float64{math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, 1.5}
	for i := range v {
		if i < len(special) {
			v[i] = special[i]
		} else {
			v[i] = float64(i)*0.37 - 11
		}
	}
	return v
}

// TestSendSharedWritesReferenceBytes captures, on a real socket, what a
// binary connection writes for every kind of envelope the hot path carries
// and compares it byte for byte with the standalone codec — header from the
// cache, payload straight from the vector's memory, NaN payloads and −0
// included — and checks that sent-bytes counted exactly those bytes.
func TestSendSharedWritesReferenceBytes(t *testing.T) {
	wirePaths(t, func(t *testing.T) {
		small, big := awkwardVector(9), awkwardVector(1500)
		envs := []*Envelope{
			{Kind: MsgStep, Step: 3, Params: small},
			{Kind: MsgStep, Step: 4, Params: big},
			{Kind: MsgHeartbeat, Worker: 2},
			{Kind: MsgStop},
			{Kind: MsgGradient, Worker: 1, Step: 5, Coded: big,
				ComputeStartUnixNano: 1700000000123456789, ComputeDurNanos: 4200},
		}

		client, server := tcpPair(t)
		sent := metrics.NewRegistry().NewCounter("test_sent_bytes", "bytes written")
		c := newConn(client, defaultWriteTimeout, sent)
		var total uint64
		for _, e := range envs {
			want, err := EncodeFrame(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.send(e); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(server, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s step %d: wire bytes differ from the standalone encoding (%d bytes)", e.Kind, e.Step, len(want))
			}
			total += uint64(len(want))
		}
		if got := sent.Value(); got != total {
			t.Errorf("sent-bytes counted %d, the frames are %d bytes", got, total)
		}
		// Nothing else was written: the stream ends where the frames do.
		client.Close()
		if n, _ := io.Copy(io.Discard, server); n != 0 {
			t.Errorf("%d stray bytes behind the last frame", n)
		}
	})
}

// TestRecvFrameReadsIntoDestination feeds a binary connection the standalone
// codec's bytes and checks the receive side of the copy-free path: the
// payload lands, bit for bit, in the very vector the connection's sink handed
// out; a payload the sink declines is drained without touching any vector and
// surfaces marked declined, with no payload, the
// stream still in step behind it; and a connection without a sink gets a
// fresh vector per frame.
func TestRecvFrameReadsIntoDestination(t *testing.T) {
	wirePaths(t, func(t *testing.T) {
		grad := awkwardVector(1500)
		frame, err := EncodeFrame(&Envelope{Kind: MsgGradient, Worker: 1, Step: 7, Coded: grad, ComputeDurNanos: 9})
		if err != nil {
			t.Fatal(err)
		}
		stop, err := EncodeFrame(&Envelope{Kind: MsgStop})
		if err != nil {
			t.Fatal(err)
		}
		client, server := tcpPair(t)
		go func() {
			for _, b := range [][]byte{frame, frame, stop, frame} {
				client.Write(b)
			}
		}()

		dst := make([]float64, len(grad))
		asked := 0
		c := newConn(server, 0, nil)
		c.sink = func(fh frameHeader) []float64 {
			asked++
			if fh.kind != MsgGradient || fh.dim != len(grad) || fh.step != 7 {
				t.Errorf("sink asked about %+v", fh)
			}
			if asked == 2 {
				return nil
			}
			return dst
		}

		e, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Coded) != len(grad) || &e.Coded[0] != &dst[0] {
			t.Fatal("payload was not read into the vector the sink reserved")
		}
		if err := sameBits(e.Coded, grad); err != nil {
			t.Fatalf("received vector: %v", err)
		}
		if e.declined || e.ComputeDurNanos != 9 {
			t.Fatalf("accepted gradient surfaced as %+v", e)
		}

		for i := range dst {
			dst[i] = -1
		}
		e, err = c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != MsgGradient || !e.declined || e.Coded != nil || e.Step != 7 {
			t.Fatalf("declined gradient surfaced as %+v", e)
		}
		if dst[0] != -1 || dst[len(dst)-1] != -1 {
			t.Fatal("a declined payload was written somewhere")
		}
		if e, err = c.recv(); err != nil || e.Kind != MsgStop {
			t.Fatalf("frame behind the declined payload: %+v, %v", e, err)
		}
		if asked != 2 {
			t.Fatalf("sink asked %d times for two payloads (a payload-free frame has no destination)", asked)
		}

		c.sink = nil
		e, err = c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if &e.Coded[0] == &dst[0] || sameBits(e.Coded, grad) != nil {
			t.Fatal("a connection without a sink must read into a fresh vector")
		}
	})
}

// TestMasterReceiveSteadyStateAllocs: receiving a 2^17-word gradient on the
// master's unsharded binary path allocates nothing payload-sized — the vector
// comes from the free list the step loop refills — and at most the envelope
// per frame.
func TestMasterReceiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const dim, warm, frames = 1 << 17, 4, 64
	st, err := engine.NewSyncSGD(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: st, Model: benchModel{dim: dim},
		Data: testData(t), LearningRate: 0.1, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.ln.Close()
	frame, err := EncodeFrame(&Envelope{Kind: MsgGradient, Step: 1, Coded: awkwardVector(dim)})
	if err != nil {
		t.Fatal(err)
	}
	client, server := tcpPair(t)
	go func() {
		for i := 0; i < warm+frames; i++ {
			if _, err := client.Write(frame); err != nil {
				return
			}
		}
	}()
	c := newConn(server, 0, nil)
	c.sink = m.gradientSink(0)
	var first *float64
	recvOne := func() {
		e, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Coded) != dim {
			t.Fatalf("received %d words", len(e.Coded))
		}
		if first == nil {
			first = &e.Coded[0]
		} else if first != &e.Coded[0] {
			t.Fatal("a returned vector was not the next one handed out")
		}
		m.vecs.put(e.Coded) // what the step loop does once Update is done with it
	}
	for i := 0; i < warm; i++ {
		recvOne()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		recvOne()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / frames
	objects := float64(after.Mallocs-before.Mallocs) / frames
	if perFrame >= 512 || objects > 2 {
		t.Errorf("steady-state receive allocates %.0f B in %.1f objects per %d-byte frame, want the envelope only (< 512 B)",
			perFrame, objects, len(frame))
	}
}

// handWorker is a worker driven by the test: it registers the way a real one
// does, then sends and receives exactly what the test says.
type handWorker struct {
	id int
	c  *conn
}

// dialHand registers worker id with the master at addr. wrap, when set, is
// applied to the connection the worker dials.
func dialHand(addr string, id int, wrap func(c net.Conn) net.Conn) (*handWorker, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		raw = wrap(raw)
	}
	c := newConn(raw, defaultWriteTimeout, nil)
	if _, err := clientHello(c, id, 0); err != nil {
		c.close()
		return nil, err
	}
	return &handWorker{id: id, c: c}, nil
}

func (w *handWorker) close() { w.c.close() }

// step reads the next broadcast, which must be a step.
func (w *handWorker) step(t *testing.T) *Envelope {
	t.Helper()
	e, err := w.c.recv()
	if err != nil {
		t.Fatalf("worker %d: waiting for a step: %v", w.id, err)
	}
	if e.Kind != MsgStep {
		t.Fatalf("worker %d: got %s, want a step", w.id, e.Kind)
	}
	return e
}

// upload sends g whole as the worker's gradient for step.
func (w *handWorker) upload(step int, g []float64) error {
	return w.c.send(&Envelope{Kind: MsgGradient, Worker: w.id, Step: step, Coded: g})
}

// constVec is an n-long vector of one value.
func constVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// waitWorkerAlive polls the master's liveness view until worker id is (or is
// no longer) alive.
func waitWorkerAlive(t *testing.T, m *Master, id int, alive bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if h := m.Health(); id < len(h.Workers) && h.Workers[id].Alive == alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never became alive=%v", id, alive)
		}
		time.Sleep(time.Millisecond)
	}
}

// cutConn fails a connection's writes for good once its budget of bytes is
// spent, closing it — a link lost mid-frame. A negative budget is unlimited.
type cutConn struct {
	net.Conn
	budget atomic.Int64
}

func (c *cutConn) Write(p []byte) (int, error) {
	left := c.budget.Load()
	if left < 0 {
		return c.Conn.Write(p)
	}
	n := int(min(left, int64(len(p))))
	n, err := c.Conn.Write(p[:n])
	c.budget.Store(left - int64(n))
	if err == nil && n < len(p) {
		c.Conn.Close()
		err = errors.New("link cut")
	}
	return n, err
}

// TestMidPayloadConnectionLossLeavesNothingBehind cuts a worker's upload in
// the middle of a payload, then rejoins and uploads the same step again. The
// destination was reserved before the bytes came, so the cut must leave
// nothing of it behind: the re-upload is gathered in that very step, nothing
// is counted malformed, and no goroutine outlives the run. (The subtest name
// predates the one-connection upload; it keeps the test's id stable.)
func TestMidPayloadConnectionLossLeavesNothingBehind(t *testing.T) {
	const dim = 64
	t.Run("lanes=1", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		st, err := engine.NewISSGD(2)
		if err != nil {
			t.Fatal(err)
		}
		master, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: st, Model: benchModel{dim: dim},
			Data: testData(t), LearningRate: 0.5, W: 2, MaxSteps: 2, LivenessTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		var res *engine.Result
		var runErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, runErr = master.Run()
		}()

		w0, err := dialHand(master.Addr(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w0.close()
		var cut *cutConn
		victim, err := dialHand(master.Addr(), 1, func(c net.Conn) net.Conn {
			cut = &cutConn{Conn: c}
			cut.budget.Store(-1)
			return cut
		})
		if err != nil {
			t.Fatal(err)
		}
		defer victim.close()
		w0.step(t)
		victim.step(t)

		// The header and the first words of the payload get through.
		cut.budget.Store(frameHeaderSize + 80)
		if err := victim.upload(0, constVec(dim, 3)); err == nil {
			t.Fatal("the cut upload reported success")
		}
		waitWorkerAlive(t, master, 1, false)
		victim.close()

		reborn, err := dialHand(master.Addr(), 1, nil)
		if err != nil {
			t.Fatalf("rejoin: %v", err)
		}
		defer reborn.close()
		if e := reborn.step(t); e.Step != 0 {
			t.Fatalf("rejoined worker was handed step %d, want the in-flight step 0", e.Step)
		}
		if err := reborn.upload(0, constVec(dim, 3)); err != nil {
			t.Fatal(err)
		}
		if err := w0.upload(0, constVec(dim, 1)); err != nil {
			t.Fatal(err)
		}
		for _, w := range []*handWorker{w0, reborn} {
			if e := w.step(t); e.Step != 1 {
				t.Fatalf("worker %d: step %d after step 0", w.id, e.Step)
			}
			if err := w.upload(1, constVec(dim, 1)); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("master hung")
		}
		if runErr != nil {
			t.Fatal(runErr)
		}
		if got := res.Run.Records[0]; got.Available != 2 || got.Degraded {
			t.Errorf("step 0 gathered %d uploads (degraded=%v), want both: the re-upload belongs to it", got.Available, got.Degraded)
		}
		// Step 0 applied −½·(1+3)/2 to zeros, step 1 −½·(1+1)/2.
		if err := sameBits(res.Params, constVec(dim, -1.5)); err != nil {
			t.Errorf("final parameters: %v", err)
		}
		if got := master.MalformedGradients(); got != 0 {
			t.Errorf("%d gradients counted malformed; the cut left something behind", got)
		}
		if got := master.Rejoins(); got != 1 {
			t.Errorf("rejoins = %d, want 1", got)
		}
		w0.close()
		reborn.close()
		goroutinesSettleTo(t, baseline)
	})
}

// TestWrongDimensionGradientIsDrainedNotAllocated: a registered binary peer
// claiming an 8 MiB gradient for a 64-word model costs the master a header
// parse and a discard — no vector of the claimed size — is counted malformed
// exactly once with the length it claimed, and keeps its connection, on
// which the valid gradient behind it is gathered.
func TestWrongDimensionGradientIsDrainedNotAllocated(t *testing.T) {
	const dim, claimed = 64, 1 << 20
	var log bytes.Buffer
	st, err := engine.NewSyncSGD(1)
	if err != nil {
		t.Fatal(err)
	}
	master, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: st, Model: benchModel{dim: dim},
		Data: testData(t), LearningRate: 0.5, W: 1, MaxSteps: 1,
		Events: events.New(events.Config{Writer: &log, MinLevel: events.LevelWarn})})
	if err != nil {
		t.Fatal(err)
	}
	var res *engine.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()
	w, err := dialHand(master.Addr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.step(t)
	oversized := constVec(claimed, 7)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.upload(0, oversized); err != nil {
		t.Fatal(err)
	}
	if err := w.upload(0, constVec(dim, 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master hung behind the oversized gradient")
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !raceEnabled {
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%d bytes allocated while an %d-byte payload was declined: it was not drained", got, 8*claimed)
		}
	}
	if res.Run.Steps() != 1 {
		t.Fatalf("steps = %d, want 1: the connection must stay in service", res.Run.Steps())
	}
	if err := sameBits(res.Params, constVec(dim, -1)); err != nil {
		t.Errorf("final parameters: %v", err)
	}
	if got := master.MalformedGradients(); got != 1 {
		t.Errorf("malformed count = %d, want exactly 1", got)
	}
	if !bytes.Contains(log.Bytes(), []byte(`"type":"master.malformed_gradient"`)) ||
		!bytes.Contains(log.Bytes(), []byte(fmt.Sprintf(`"got_dim":%d`, claimed))) {
		t.Errorf("no master.malformed_gradient event with the claimed got_dim %d in:\n%s", claimed, log.Bytes())
	}
}

// TestRejoinResumesFromAnUntornBroadcast rejoins one worker on every step of
// a run whose parameters differ from step to step in every element, while the
// other worker keeps the steps coming. The step loop refills one curParams
// buffer in place; whatever step a rejoin is handed, its params must be that
// step's broadcast exactly — never a mix of two steps. The check is on the
// values: the kernel reads a vectored write's payload, which the race
// detector does not see.
func TestRejoinResumesFromAnUntornBroadcast(t *testing.T) {
	const dim, steps = 1 << 14, 200
	st, err := engine.NewISSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	master, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: st, Model: benchModel{dim: dim},
		Data: testData(t), LearningRate: 0.5, W: 2, MaxSteps: steps, LivenessTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, runErr = master.Run()
	}()

	// The joiner registers, takes whatever step it is handed, and leaves —
	// over and over, without ever uploading — until the job is gone.
	type resumed struct {
		step   int
		params []float64
	}
	var mu sync.Mutex
	var got []resumed
	joined := make(chan struct{}, 1)
	var joiner sync.WaitGroup
	joiner.Add(1)
	go func() {
		defer joiner.Done()
		first := true
		for {
			w, err := dialHand(master.Addr(), 1, nil)
			if errors.Is(err, ErrJobGone) {
				return
			}
			if err != nil {
				select {
				case <-done:
					return
				default:
				}
				time.Sleep(time.Millisecond) // refused: the master has not seen the last connection close yet
				continue
			}
			if e, err := w.c.recv(); err == nil && e.Kind == MsgStep {
				mu.Lock()
				got = append(got, resumed{e.Step, e.Params})
				mu.Unlock()
			}
			w.close()
			if first {
				first = false
				joined <- struct{}{}
			}
		}
	}()

	w0, err := dialHand(master.Addr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w0.close()
	<-joined
	broadcast := make([][]float64, steps)
	for s := 0; s < steps; s++ {
		e := w0.step(t)
		if e.Step != s {
			t.Fatalf("worker 0 got step %d, want %d", e.Step, s)
		}
		broadcast[s] = append([]float64(nil), e.Params...)
		if err := w0.upload(s, constVec(dim, float64(s+1))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("master hung")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	joiner.Wait()
	if len(got) < 2 {
		t.Fatalf("the joiner was handed a step %d times; it must have rejoined mid-run", len(got))
	}
	for _, r := range got {
		if r.step < 0 || r.step >= steps {
			t.Fatalf("rejoin handed step %d", r.step)
		}
		if err := sameBits(r.params, broadcast[r.step]); err != nil {
			t.Errorf("rejoin at step %d: params are not that step's broadcast: %v", r.step, err)
		}
	}
	if master.Rejoins() < 1 {
		t.Error("no rejoin counted")
	}
}

// ownershipProbe is a Strategy that watches the vectors Recover is handed
// and, on the way into a Fold, the master's free list.
type ownershipProbe struct {
	engine.Strategy
	t *testing.T
	// seen counts, per vector (by the address of its first word), the steps
	// it was gathered in.
	seen  map[*float64]int
	calls int
	// onPartitions runs on every Partitions call — the first thing a Fold
	// does with the strategy, before it reads the late upload.
	onPartitions func()
}

func (p *ownershipProbe) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	p.calls++
	inStep := map[*float64]int{}
	for i, v := range coded {
		if v == nil {
			continue
		}
		if !avail.Contains(i) {
			p.t.Errorf("step %d: a vector for worker %d, who is not in the gathered set", p.calls-1, i)
		}
		if j, dup := inStep[&v[0]]; dup {
			p.t.Errorf("step %d: workers %d and %d were handed the same vector", p.calls-1, j, i)
		}
		inStep[&v[0]] = i
		p.seen[&v[0]]++
	}
	return p.Strategy.Recover(avail, coded)
}

func (p *ownershipProbe) Partitions(i int) []int {
	if p.onPartitions != nil {
		p.onPartitions()
	}
	return p.Strategy.Partitions(i)
}

// TestGatheredVectorsAreRecycledNotShared runs a real fleet and watches the
// vectors Recover is handed: within a step every worker's upload sits in a
// vector of its own, across steps the same few vectors come round again (the
// free list is bounded by 2n), and the run equals one that never looked.
func TestGatheredVectorsAreRecycledNotShared(t *testing.T) {
	const steps = 24
	plain, _ := runShapedCluster(t, func(c *MasterConfig) { c.MaxSteps = steps }, nil)
	probe := &ownershipProbe{t: t, seen: map[*float64]int{}}
	res, _ := runShapedCluster(t, func(c *MasterConfig) {
		c.MaxSteps = steps
		probe.Strategy = c.Strategy
		c.Strategy = probe
	}, nil)
	if probe.calls != steps {
		t.Fatalf("Recover ran %d times, want %d", probe.calls, steps)
	}
	reused := 0
	for _, n := range probe.seen {
		if n > 1 {
			reused++
		}
	}
	// 4 workers: at most 4 vectors gathered and 4 being filled at any time.
	if len(probe.seen) > 2*4+4 || reused == 0 {
		t.Errorf("%d uploads went through %d distinct vectors, %d of them more than once; want a recycled handful",
			steps*4, len(probe.seen), reused)
	}
	normalizeRun(plain)
	normalizeRun(res)
	if err := sameBits(res.Params, plain.Params); err != nil {
		t.Errorf("watched run diverged from the plain one: %v", err)
	}
}

// TestFoldedUploadIsRecycledAfterFold drives a bounded-staleness master by
// hand: worker 0's upload closes each step, worker 1's lands one step late
// and is folded. While the Fold runs, the late upload's vector must not be in
// the free list yet (a reader could be filling it); once the Fold is done it
// must be. The parameters come out as if every step had waited for both.
func TestFoldedUploadIsRecycledAfterFold(t *testing.T) {
	const dim, steps = 32, 4
	inner, err := engine.NewISSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	probe := &ownershipProbe{Strategy: inner, t: t, seen: map[*float64]int{}}
	mm := NewMasterMetrics(metrics.NewRegistry())
	master, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: probe, Model: benchModel{dim: dim},
		Data: testData(t), LearningRate: 0.5, W: 2, Staleness: 1, MaxSteps: steps, Metrics: mm})
	if err != nil {
		t.Fatal(err)
	}
	// inFreeList reports whether a vector starting with marker sits in the
	// master's free list. It empties and refills the list, which nobody else
	// touches at the moments the test looks: no upload is in flight.
	inFreeList := func(marker float64) (found bool) {
		for n := len(master.vecs.free); n > 0; n-- {
			v := <-master.vecs.free
			found = found || v[0] == marker
			master.vecs.free <- v
		}
		return found
	}
	var late atomic.Int64 // marker of the late upload in flight; 0 = none
	probe.onPartitions = func() {
		if m := late.Load(); m != 0 && inFreeList(float64(m)) {
			t.Errorf("the late upload marked %d was in the free list while its Fold ran", m)
		}
	}
	var runErr error
	var res *engine.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()
	w0, err := dialHand(master.Addr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w0.close()
	w1, err := dialHand(master.Addr(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.close()

	w0.step(t)
	for s := 0; s < steps; s++ {
		if err := w0.upload(s, constVec(dim, float64(4*(s+1)))); err != nil {
			t.Fatal(err)
		}
		if s == steps-1 {
			break // the last step ends the run; nothing can fold behind it
		}
		// Step s+1's broadcast is out: step s is decoded, so worker 1's
		// upload for it can only be folded.
		if e := w0.step(t); e.Step != s+1 {
			t.Fatalf("worker 0 got step %d, want %d", e.Step, s+1)
		}
		marker := int64(1000 + 8*s)
		late.Store(marker)
		if err := w1.upload(s, constVec(dim, float64(marker))); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); mm.FoldedGradients.Value() != uint64(s+1); {
			if time.Now().After(deadline) {
				t.Fatalf("step %d's late upload was never folded", s)
			}
			time.Sleep(time.Millisecond)
		}
		// accept returns the vector right behind the Fold; nobody is sending,
		// so it stays in the list until the next upload takes it.
		for deadline := time.Now().Add(30 * time.Second); !inFreeList(float64(marker)); {
			if time.Now().After(deadline) {
				t.Fatalf("step %d's folded upload never came back to the free list", s)
			}
			time.Sleep(time.Millisecond)
		}
		late.Store(0)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master hung")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	// Every folded step ends up normalized over both uploads, the last over
	// worker 0's alone: −½·Σ (4(s+1) + 1000+8s)/2 − ½·4·steps.
	want := 0.0
	for s := 0; s < steps-1; s++ {
		want -= 0.5 * (float64(4*(s+1)) + float64(1000+8*s)) / 2
	}
	want -= 0.5 * float64(4*steps)
	if err := sameBits(res.Params, constVec(dim, want)); err != nil {
		t.Errorf("final parameters: %v", err)
	}
	if res.Run.TotalFolded() != steps-1 {
		t.Errorf("%d folds recorded, want %d", res.Run.TotalFolded(), steps-1)
	}
	if len(probe.seen) > 4 {
		t.Errorf("%d gathered uploads went through %d distinct vectors, want at most 2n = 4", steps, len(probe.seen))
	}
}
