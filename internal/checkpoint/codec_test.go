package checkpoint

import (
	"errors"
	"testing"
)

// TestCodecFamiliesDoNotCrossOpen seals with one magic and opens with
// another: the trailer must reject the foreign family with the
// opener's own sentinel, and accept its own.
func TestCodecFamiliesDoNotCrossOpen(t *testing.T) {
	errA, errB := errors.New("a corrupt"), errors.New("b corrupt")
	a := Codec{Magic: 0x48474352, Corrupt: errA}
	b := Codec{Magic: 0x48474453, Corrupt: errB}
	blob := a.Seal([]byte("payload"))
	if _, err := b.Open(blob); !errors.Is(err, errB) {
		t.Fatalf("foreign blob opened (err=%v)", err)
	}
	if got, err := a.Open(blob); err != nil || string(got) != "payload" {
		t.Fatalf("own blob: %q, %v", got, err)
	}
}
