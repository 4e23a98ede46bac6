package cluster

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/model"
)

// TestLegacyGobHelloRefused pins the break between the frame hello and the
// gob hello that workers and masters built before it open a connection with:
// old and new peers refuse each other and never misparse.
//
// A master closes a gob hello — testdata/legacy_gob_hello.hex, the bytes such
// a worker sends for id 1 — without an ack or a registration, and keeps
// serving: the fleet then trains to the baseline's records and parameters
// with no rejoin counted. A worker answered with bytes that are not a frame
// fails NewWorker on the first header; one whose peer closes unanswered, as
// an older master does when its gob decoder times out waiting for the rest
// of the message a frame's first bytes seem to start, fails on EOF. Both
// well inside wireAckTimeout.
func TestLegacyGobHelloRefused(t *testing.T) {
	legacy := readGolden(t, "legacy_gob_hello")

	t.Run("old worker, new master", func(t *testing.T) {
		base, _ := runShapedCluster(t, nil, nil)
		normalizeRun(base)
		res, mm := runShapedCluster(t, nil, func(i int, c *WorkerConfig) {
			if i != 1 {
				return
			}
			// Before worker 1 dials: a registration from the gob hello would
			// make the real one a rejoin.
			raw, err := net.Dial("tcp", c.Addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer raw.Close()
			if _, err := raw.Write(legacy); err != nil {
				t.Error(err)
				return
			}
			expectClosedUnanswered(t, "gob hello", raw)
		})
		normalizeRun(res)
		if got := mm.Rejoins.Value(); got != 0 {
			t.Errorf("rejoins = %d; the gob hello must not register worker 1", got)
		}
		if !reflect.DeepEqual(base.Run.Records, res.Run.Records) {
			t.Error("the fleet diverged from the baseline after a gob hello")
		}
		if !reflect.DeepEqual(base.Params, res.Params) {
			t.Error("the fleet's final parameters differ from the baseline after a gob hello")
		}
	})

	wantHello, err := EncodeFrame(&Envelope{Kind: MsgHello, Worker: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		reply []byte // nil: close unanswered
		want  string
	}{
		{name: "gob reply", reply: legacy, want: "bad frame magic"},
		{name: "closed unanswered", want: "EOF"},
	} {
		t.Run("new worker, "+tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := make(chan []byte, 1)
			go func() {
				raw, err := ln.Accept()
				if err != nil {
					got <- nil
					return
				}
				defer raw.Close()
				hello := make([]byte, frameHeaderSize)
				_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := io.ReadFull(raw, hello); err != nil {
					hello = nil
				}
				got <- hello
				if tc.reply != nil {
					_, _ = raw.Write(tc.reply)
				}
			}()
			parts, err := testData(t).Partition(4)
			if err != nil {
				t.Fatal(err)
			}
			loader, err := dataset.NewLoader(parts[0], 16, 42)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			w, err := NewWorker(WorkerConfig{
				Addr: ln.Addr().String(), ID: 0, Partitions: []int{0},
				Loaders: []*dataset.Loader{loader}, Model: model.SoftmaxRegression{Features: 6, Classes: 3},
				Encode: SumEncoder(), HeartbeatInterval: -1,
			})
			elapsed := time.Since(start)
			if err == nil {
				w.Stop()
				t.Fatal("NewWorker registered with a peer that sent no frame ack")
			}
			if !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrJobGone) {
				t.Errorf("NewWorker error %q, want one naming %q", err, tc.want)
			}
			if elapsed >= wireAckTimeout {
				t.Errorf("NewWorker took %v, want it to fail inside wireAckTimeout (%v)", elapsed, wireAckTimeout)
			}
			if hello := <-got; !bytes.Equal(hello, wantHello) {
				t.Errorf("worker hello % x, want the hello frame % x", hello, wantHello)
			}
		})
	}
}
