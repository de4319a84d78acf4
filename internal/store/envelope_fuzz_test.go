package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// FuzzDecodeEnvelope drives the disk tier's envelope decoder — the only
// parser between a persisted result and the server that serves it —
// with arbitrary bytes. It must never panic, every payload must survive
// an encode/decode round trip, and only canonical envelopes may be
// accepted: anything decodeEnvelope takes re-encodes byte-identically.
func FuzzDecodeEnvelope(f *testing.F) {
	payload := []byte("{\n  \"schema\": 1,\n  \"results\": []\n}\n")
	valid := encodeEnvelope(payload)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-4] ^= 0x08 // bit-flipped payload
	f.Add(flipped)
	// A correct checksum and length in non-canonical spelling (padded
	// separator, signed length), which a lenient parser would accept.
	f.Add(fmt.Appendf(nil, "%s  %x +%d\n%s", diskMagic, sha256.Sum256(payload), len(payload), payload))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if got, ok := decodeEnvelope(encodeEnvelope(raw)); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("payload %q does not round-trip", raw)
		}
		payload, ok := decodeEnvelope(raw)
		if !ok {
			return
		}
		if canon := encodeEnvelope(payload); !bytes.Equal(canon, raw) {
			t.Fatalf("accepted non-canonical envelope %q; canonical form %q", raw, canon)
		}
	})
}
