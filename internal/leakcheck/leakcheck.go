// Package leakcheck fails a test binary whose goroutines outlive its
// tests: a torn-down cluster, session or engine run that leaves a
// goroutine behind is a leak the race detector cannot see.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long Main waits for the goroutine count to recover.
// Goroutines abandoned on purpose, such as a wedged Compute the
// watchdog gave up on, get that long to return; the tests' wedges
// sleep 2 s.
const settle = 10 * time.Second

// Main runs the tests, then waits up to settle for the goroutine count
// to fall back to its pre-run level. If the count stays above it, Main
// prints a dump of every goroutine and exits nonzero.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(settle)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines %v after the tests, %d before\n%s\n", n, settle, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
