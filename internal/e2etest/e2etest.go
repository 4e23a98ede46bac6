// Package e2etest is what the binary end-to-end tests under cmd/ share: a
// child process whose output and exit a poll loop can watch, and listen
// addresses picked so that losing the listen-close-rebind race against a
// test package running in parallel costs one retry, not the test.
package e2etest

import (
	"net"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// Output collects a child's combined output; it may be read while the
// process is still writing.
type Output struct {
	mu sync.Mutex
	b  strings.Builder
}

func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *Output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// FreeAddr returns a loopback address that was free a moment ago. Nothing
// holds it: another process may bind it before the caller's child does,
// which is what StartListening retries.
func FreeAddr(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// Child is a started process whose exit can be seen without blocking.
type Child struct {
	Cmd *exec.Cmd
	Out *Output

	exited chan struct{} // closed once the process has been reaped
}

// Start runs cmd with its combined output collected, reaps it in the
// background and kills it when the test ends.
func Start(t testing.TB, cmd *exec.Cmd) *Child {
	t.Helper()
	c := &Child{Cmd: cmd, Out: &Output{}, exited: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = c.Out, c.Out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(c.exited)
		_ = cmd.Wait() // a killed child reports an error by design
	}()
	t.Cleanup(c.Kill)
	return c
}

// Exited reports whether the process has exited.
func (c *Child) Exited() bool {
	select {
	case <-c.exited:
		return true
	default:
		return false
	}
}

// Kill kills the process and waits until it is reaped.
func (c *Child) Kill() {
	_ = c.Cmd.Process.Kill()
	<-c.exited
}

// Poll calls ready until it reports true. It fails the test when timeout
// passes — and at once when the child has exited: whatever a dead process
// was expected to do will not happen, so there is nothing to wait out.
func (c *Child) Poll(t testing.TB, timeout time.Duration, what string, ready func() bool) {
	t.Helper()
	if !c.poll(timeout, ready) {
		c.fatal(t, what)
	}
}

// fatal fails the test over a poll that gave up, saying which way.
func (c *Child) fatal(t testing.TB, what string) {
	t.Helper()
	why := "timed out"
	if c.Exited() {
		why = "the child process exited first"
	}
	t.Fatalf("%s: %s\n%s", what, why, c.Out)
}

func (c *Child) poll(timeout time.Duration, ready func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !ready() {
		if c.Exited() || time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Millisecond)
	}
	return true
}

// StartListening starts the command that build returns for n freshly picked
// addresses and polls ready until the child serves on them. A child that
// exits because one of its ports was taken between the pick and its own bind
// is started once more on new addresses; any other early exit, or a second
// lost race, fails the test.
func StartListening(t testing.TB, n int, build func(addrs []string) *exec.Cmd, ready func(c *Child, addrs []string) bool) (*Child, []string) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = FreeAddr(t)
		}
		c := Start(t, build(addrs))
		if c.poll(60*time.Second, func() bool { return ready(c, addrs) }) {
			return c, addrs
		}
		if attempt == 0 && c.Exited() && strings.Contains(c.Out.String(), "address already in use") {
			t.Logf("lost the race for one of %v; picking new addresses", addrs)
			continue
		}
		c.fatal(t, "child never started listening")
	}
}
