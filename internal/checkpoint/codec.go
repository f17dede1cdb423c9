package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Codec seals checkpoint objects with an 8-byte trailer — a magic
// followed by a CRC32 (IEEE) of the payload, both little-endian — so
// a corrupt, truncated or foreign object is detected when it is read
// back instead of being restored as garbage.
type Codec struct {
	// Magic tags the object family; a blob sealed under another magic
	// does not open.
	Magic uint32
	// Corrupt is wrapped by every Open failure, so callers match their
	// own sentinel with errors.Is.
	Corrupt error
}

// trailerLen is the sealing overhead in bytes.
const trailerLen = 8

// Seal returns the payload with the trailer appended.
func (c Codec) Seal(payload []byte) []byte {
	out := make([]byte, len(payload)+trailerLen)
	copy(out, payload)
	binary.LittleEndian.PutUint32(out[len(payload):], c.Magic)
	binary.LittleEndian.PutUint32(out[len(payload)+4:], crc32.ChecksumIEEE(payload))
	return out
}

// Open validates and strips the trailer.
func (c Codec) Open(blob []byte) ([]byte, error) {
	if len(blob) < trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", c.Corrupt, len(blob))
	}
	payload, trailer := blob[:len(blob)-trailerLen], blob[len(blob)-trailerLen:]
	if binary.LittleEndian.Uint32(trailer[:4]) != c.Magic {
		return nil, fmt.Errorf("%w: bad trailer magic", c.Corrupt)
	}
	if binary.LittleEndian.Uint32(trailer[4:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: CRC32 mismatch", c.Corrupt)
	}
	return payload, nil
}
