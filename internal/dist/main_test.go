package dist

import (
	"testing"

	"hourglass/internal/leakcheck"
)

// TestMain fails the package when a test leaves a coordinator, shard
// or peer-mesh goroutine behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
