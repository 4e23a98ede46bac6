package cluster

import (
	"bufio"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// legacyEnvelope is Envelope as workers built before the one-connection
// upload encode it: the same fields plus the gather-lane negotiation (Shards
// proposed a lane count, Shard tagged a lane-attach hello) and the sub-frame
// geometry (Offset, Total). gob matches fields by name, so a value of it puts
// on the wire what such a worker's hello does.
type legacyEnvelope struct {
	Kind                 string
	Worker               int
	Step                 int
	Params               []float64
	Coded                []float64
	ComputeStartUnixNano int64
	ComputeDurNanos      int64
	Wire                 string
	Gen                  int
	Shards               int
	Staleness            int
	Shard                int
	Offset               int
	Total                int
}

// legacyReport is what legacyHelloProxy saw of the master.
type legacyReport struct {
	// ack answered the four-lane hello, decoded as an old worker would.
	ack legacyEnvelope
	// laneClosed: the master closed the lane-attach connection (after at
	// most a hello ack) instead of keeping it.
	laneClosed bool
	err        error
}

// legacyHelloProxy stands between one worker and the master whose address
// arrives on master. It replaces the worker's hello with the one an older
// worker run with four gather lanes sends (Wire "binaryv2", Shards 4) and
// decodes the master's ack as that worker would. While the registration is
// live, and before the worker holds its ack, it dials a second connection
// with the lane-attach hello such a worker sent next (Shard 1, the ack's
// Gen). Then it hands the worker the ack and relays both ways. The report
// arrives once the relay has started, or on the first error.
func legacyHelloProxy(t *testing.T, master <-chan string) (string, <-chan legacyReport) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan legacyReport, 1)
	go func() {
		wc, err := ln.Accept()
		if err != nil {
			out <- legacyReport{err: err}
			return
		}
		rep, mc, mr, wr := legacyHandshake(wc, <-master)
		out <- rep
		if rep.err != nil {
			wc.Close()
			return
		}
		go func() {
			io.Copy(mc, wr)
			mc.Close()
		}()
		io.Copy(wc, mr)
		wc.Close()
	}()
	return ln.Addr().String(), out
}

// legacyHandshake is legacyHelloProxy's exchange; mr and wr hold whatever
// the master and the worker sent behind their hellos.
func legacyHandshake(wc net.Conn, master string) (rep legacyReport, mc net.Conn, mr, wr *bufio.Reader) {
	fail := func(err error) (legacyReport, net.Conn, *bufio.Reader, *bufio.Reader) {
		if mc != nil {
			mc.Close()
		}
		return legacyReport{err: err}, nil, nil, nil
	}
	wr = bufio.NewReader(wc)
	var hello Envelope
	if err := gob.NewDecoder(wr).Decode(&hello); err != nil {
		return fail(err)
	}
	mc, err := net.Dial("tcp", master)
	if err != nil {
		return fail(err)
	}
	old := legacyEnvelope{Kind: MsgHello, Worker: hello.Worker, Step: hello.Step, Wire: "binaryv2", Shards: 4}
	if err := gob.NewEncoder(mc).Encode(&old); err != nil {
		return fail(err)
	}
	mr = bufio.NewReader(mc)
	mc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := gob.NewDecoder(mr).Decode(&rep.ack); err != nil {
		return fail(err)
	}
	mc.SetReadDeadline(time.Time{})

	// The master serves one handshake at a time, so this hello meets the
	// registration above already installed.
	lc, err := net.Dial("tcp", master)
	if err != nil {
		return fail(err)
	}
	defer lc.Close()
	lane := legacyEnvelope{Kind: MsgHello, Worker: hello.Worker, Wire: "binaryv2", Shard: 1, Gen: rep.ack.Gen}
	if err := gob.NewEncoder(lc).Encode(&lane); err != nil {
		return fail(err)
	}
	// Well inside the worker's wait for its own ack (wireAckTimeout).
	lc.SetReadDeadline(time.Now().Add(2 * time.Second))
	lr := bufio.NewReader(lc)
	var laneAck legacyEnvelope
	_ = gob.NewDecoder(lr).Decode(&laneAck) // an ack before the close is allowed
	_, err = io.Copy(io.Discard, lr)
	var ne net.Error
	rep.laneClosed = !(errors.As(err, &ne) && ne.Timeout())

	ack := &Envelope{Kind: rep.ack.Kind, Worker: rep.ack.Worker, Wire: rep.ack.Wire,
		Gen: rep.ack.Gen, Staleness: rep.ack.Staleness}
	if err := gob.NewEncoder(wc).Encode(ack); err != nil {
		return fail(err)
	}
	return rep, mc, mr, wr
}

// TestLegacyLaneHelloInterop pins the interop with workers built before the
// one-connection upload. One worker of a CR(4,2) fleet registers with the
// hello such a worker sends with four gather lanes: the master must ack it
// with plain binaryv1 and no lane grant. The lane-attach hello such a worker
// sent next, for its already-live id, must be closed. The fleet must then
// train on to the uniform baseline's records and parameters, bit for bit,
// with no rejoin counted.
func TestLegacyLaneHelloInterop(t *testing.T) {
	base, _ := runShapedCluster(t, nil, nil)
	normalizeRun(base)

	master := make(chan string, 1)
	proxy, report := legacyHelloProxy(t, master)
	res, mm := runShapedCluster(t, nil, func(i int, c *WorkerConfig) {
		if i == 0 {
			master <- c.Addr
			c.Addr = proxy
		}
	})
	normalizeRun(res)

	var rep legacyReport
	select {
	case rep = <-report:
	case <-time.After(10 * time.Second):
		t.Fatal("the proxy never reported")
	}
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	if rep.ack.Kind != MsgHello || rep.ack.Wire != WireBinary || rep.ack.Shards != 0 {
		t.Errorf("a binaryv2 hello with 4 lanes got ack %+v, want a binaryv1 hello ack granting no lanes", rep.ack)
	}
	if !rep.laneClosed {
		t.Error("the lane-attach hello for a live id was kept open")
	}
	if !reflect.DeepEqual(base.Run.Records, res.Run.Records) {
		t.Error("a fleet with an old lane-proposing worker diverged from the uniform baseline")
	}
	if !reflect.DeepEqual(base.Params, res.Params) {
		t.Error("a fleet with an old lane-proposing worker produced different final parameters")
	}
	if got := mm.Rejoins.Value(); got != 0 {
		t.Errorf("rejoins = %d; the lane-attach hello must not replace the live registration", got)
	}
}
