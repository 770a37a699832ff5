package tableobj

import (
	"encoding/binary"
	"errors"
	"hash/fnv"

	"streamlake/internal/colfile"
)

// Bloom is a per-column membership filter a data file's metadata can
// carry: equality predicates consult it during planning to prune files
// whose value ranges overlap the probe but which provably never stored
// the probed value. Keys are the canonical value encoding
// (colfile.AppendValue), hashed with FNV-64 double hashing — fully
// deterministic, so encoded filters are byte-stable across runs.
type Bloom struct {
	K    uint8  // probes per key
	Bits []byte // the bit array
}

const (
	bloomBitsPerKey = 10
	bloomProbes     = 4 // round(ln2 * 10) ≈ optimal k for 10 bits/key
)

// NewBloom sizes a filter for n keys at ~10 bits per key (≈1% false
// positives with 4 probes).
func NewBloom(n int) *Bloom {
	if n < 1 {
		n = 1
	}
	bits := n * bloomBitsPerKey
	return &Bloom{K: bloomProbes, Bits: make([]byte, (bits+7)/8)}
}

// hashValue is the FNV-64 hash of v's canonical encoding, the first of
// the two hashes double hashing combines.
func hashValue(v colfile.Value) uint64 {
	h := fnv.New64a()
	h.Write(colfile.AppendValue(nil, v))
	return h.Sum64()
}

// Add records a value.
func (b *Bloom) Add(v colfile.Value) { b.addHash(hashValue(v)) }

// addHash records the value whose hashValue is h1.
func (b *Bloom) addHash(h1 uint64) {
	h2 := h1>>33 | h1<<31 | 1 // the second hash: odd, so probe steps cycle the whole table
	n := uint64(len(b.Bits)) * 8
	for i := uint64(0); i < uint64(b.K); i++ {
		bit := (h1 + i*h2) % n
		b.Bits[bit/8] |= 1 << (bit % 8)
	}
}

// MayContain reports whether v could have been added; false is
// definitive absence.
func (b *Bloom) MayContain(v colfile.Value) bool {
	if b == nil || len(b.Bits) == 0 {
		return true // no filter: cannot prune
	}
	h1 := hashValue(v)
	h2, n := h1>>33|h1<<31|1, uint64(len(b.Bits))*8
	for i := uint64(0); i < uint64(b.K); i++ {
		bit := (h1 + i*h2) % n
		if b.Bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// appendBloom serializes b (nil encodes as an absent filter).
func appendBloom(buf []byte, b *Bloom) []byte {
	if b == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Bits)))
	buf = append(buf, b.Bits...)
	return append(buf, byte(b.K))
}

// readBloom parses one filter, returning nil for an absent one, or
// unless keep, for every one: it then only checks and skips the bytes.
func readBloom(data []byte, keep bool) (*Bloom, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, errors.New("tableobj: truncated bloom length")
	}
	data = data[sz:]
	if n == 0 {
		return nil, data, nil
	}
	if n >= uint64(len(data)) { // the bits and the probe count; n+1 would wrap
		return nil, nil, errors.New("tableobj: truncated bloom bits")
	}
	if data[n] == 0 {
		return nil, nil, errors.New("tableobj: bloom with zero probes")
	}
	if !keep {
		return nil, data[n+1:], nil
	}
	return &Bloom{Bits: append([]byte(nil), data[:n]...), K: data[n]}, data[n+1:], nil
}
