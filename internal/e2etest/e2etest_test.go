package e2etest

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary play the child: it prints what
// E2ETEST_CHILD_SAYS holds and then, as E2ETEST_CHILD says, exits 1 ("exit")
// or stays up ("serve").
func TestMain(m *testing.M) {
	if line := os.Getenv("E2ETEST_CHILD_SAYS"); line != "" {
		fmt.Println(line)
		if os.Getenv("E2ETEST_CHILD") == "exit" {
			os.Exit(1)
		}
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func child(mode, says string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "E2ETEST_CHILD="+mode, "E2ETEST_CHILD_SAYS="+says)
	return cmd
}

// fatalTB records a Fatalf instead of failing the real test.
type fatalTB struct {
	testing.TB
	fatal string
}

func (f *fatalTB) Helper() {}
func (f *fatalTB) Fatalf(format string, args ...any) {
	f.fatal = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// fatalOf runs fn against a recording TB and returns what it died of.
func fatalOf(t *testing.T, fn func(tb testing.TB)) string {
	tb := &fatalTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(tb)
	}()
	<-done
	return tb.fatal
}

func TestStartListeningRepicksOnceAfterLosingThePort(t *testing.T) {
	var picked [][]string
	c, addrs := StartListening(t, 2,
		func(addrs []string) *exec.Cmd {
			picked = append(picked, addrs)
			if len(picked) == 1 {
				return child("exit", "admin: listen "+addrs[1]+": bind: address already in use")
			}
			return child("serve", "up")
		},
		func(c *Child, _ []string) bool { return strings.Contains(c.Out.String(), "up") })
	if len(picked) != 2 {
		t.Fatalf("%d starts, want a second one after the lost bind", len(picked))
	}
	if addrs[0] != picked[1][0] || addrs[1] != picked[1][1] {
		t.Errorf("returned %v, the serving child was started on %v", addrs, picked[1])
	}
	if c.Exited() {
		t.Error("the serving child is reported as exited")
	}
	c.Kill()
	if !c.Exited() {
		t.Error("a killed child is not reported as exited")
	}
}

func TestDeadChildEndsThePollAtOnce(t *testing.T) {
	start := time.Now()
	never := func(*Child, []string) bool { return false }
	// Any other early exit is not retried, and a second lost bind is not
	// either.
	for _, says := range []string{"config: bad flag", "bind: address already in use"} {
		starts := 0
		got := fatalOf(t, func(tb testing.TB) {
			StartListening(tb, 1, func([]string) *exec.Cmd { starts++; return child("exit", says) }, never)
		})
		if !strings.Contains(got, "exited first") || !strings.Contains(got, says) {
			t.Errorf("child that said %q: test died of %q, want the early exit and the child's output", says, got)
		}
		if want := 1 + strings.Count(says, "address already in use"); starts != want {
			t.Errorf("child that said %q was started %d times, want %d", says, starts, want)
		}
	}
	c := Start(t, child("exit", "gone"))
	if got := fatalOf(t, func(tb testing.TB) {
		c.Poll(tb, time.Minute, "waiting for the impossible", func() bool { return false })
	}); !strings.Contains(got, "waiting for the impossible: the child process exited first") {
		t.Errorf("poll on a dead child died of %q", got)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("three dead children took %v to notice; each poll allows a minute", took)
	}
}
