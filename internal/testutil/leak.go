// Package testutil holds shared test-only helpers. It is imported exclusively
// from _test.go files — keeping it out of production packages means the
// testing machinery (and package testing itself) is never linked into a
// shipped binary.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// VerifyNoLeaks runs a package's tests and then fails the run if goroutines
// started by the tests are still alive once every test finished. Use it as
// the package's TestMain:
//
//	func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }
//
// A leaked goroutine in a server/stream/cluster test is almost always a real
// bug — a drain that never finished, a fetch racer with nowhere to send, a
// forgotten ticker — and without this check it silently survives until some
// unrelated -race run trips over it.
//
//spatialvet:ignore deadexport (c) test-support hook: the server, stream and cluster TestMains call it
func VerifyNoLeaks(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := awaitNoLeaks(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutine(s) survived the test run:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// awaitNoLeaks polls the goroutine set until only expected goroutines remain
// or the deadline passes, and returns the stacks of the stragglers. Polling
// (rather than a single snapshot) gives legitimately finishing goroutines —
// http keep-alive conns being torn down, timers firing their last tick —
// time to exit before they are declared leaked.
func awaitNoLeaks(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		leaked := leakedGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leakedGoroutines snapshots all goroutine stacks and filters out the ones
// that are part of normal process/test machinery.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" || benignGoroutine(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// benignGoroutine reports whether a goroutine stack belongs to the runtime,
// the testing framework, or another piece of process plumbing that outlives
// tests by design.
func benignGoroutine(stack string) bool {
	benign := []string{
		"internal/testutil.leakedGoroutines", // the snapshotting goroutine itself
		"testing.Main(",                      // the TestMain goroutine itself
		"testing.(*M).",                      // m.Run machinery
		"testing.tRunner(",                   // finished test runners parked in cleanup
		"runtime.goexit",                     // header-only entries
		"created by runtime.",                // GC, scavenger, finalizer workers
		"runtime/trace.Start",                // -trace machinery
		"runtime.ReadTrace",                  // -trace machinery
		"os/signal.signal_recv",              // signal.Notify watcher (process-global)
		"os/signal.loop",                     // signal.Notify watcher (process-global)
		"runtime.ensureSigM",                 // signal machinery
		"runtime.forcegchelper",              // background GC helper
		"runtime.bgsweep",                    // background sweeper
		"runtime.bgscavenge",                 // background scavenger
		"runtime.runfinq",                    // finalizer runner
		"signal.Notify",                      // signalChannel watchers (process-global)
		"testing.runFuzzing",                 // fuzz workers
		"testing.runTests.func",              // test timeout watchdog
		"time.goFunc",                        // a timer callback currently firing
	}
	// The first line is "goroutine N [state]": a goroutine parked in a
	// select/chan receive for the whole run with none of the markers below
	// is exactly what we want to catch, so no state-based filtering here.
	for _, marker := range benign {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
