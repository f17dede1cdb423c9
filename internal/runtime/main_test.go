package runtime_test

import (
	"testing"

	"hourglass/internal/leakcheck"
)

// TestMain fails the package when a test leaves goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
