package ctrlplane

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame drives arbitrary bytes through the frame and message
// decoders and asserts the canonical-encoding property: every frame the
// decoder accepts must re-encode byte-identically. Fixed-width scalars,
// strict 0|1 bools, and length-checked counts mean there is exactly one
// byte representation per value — any accepted-but-not-canonical input
// the fuzzer finds is a codec bug. Decoders must also never panic or
// over-allocate on garbage (the lying-count guards).
func FuzzDecodeFrame(f *testing.F) {
	for ftype, payload := range canonicalMessages() {
		f.Add(EncodeFrame(ftype, payload))
	}
	// Malformed seeds steer the fuzzer at the interesting edges.
	f.Add([]byte{})
	f.Add([]byte("PW"))
	f.Add([]byte("GET /ctrl/report HTTP/1.1\r\n\r\n"))
	f.Add(EncodeFrame(FrameError, nil))
	f.Add(append(EncodeFrame(FrameError, nil), EncodeFrame(FrameError, nil)...))
	f.Add([]byte{frameMagic0, frameMagic1, ProtocolV, FrameBatchGrantReq, 0xff, 0xff, 0xff, 0xff})
	// A v3 peer's frames: its version byte, and a type v4 retired.
	f.Add(mutate(EncodeFrame(FrameRegisterReq, canonicalMessages()[FrameRegisterReq]), 2, 3))
	f.Add(EncodeFrame(0x01, nil))
	for _, lying := range lyingBatchResponses() {
		f.Add(lying)
	}
	// Well-framed messages whose payloads sit on a Validate edge (NaN or
	// negative caps, over-long URLs and leader ids, zero lease clocks).
	for _, s := range edgeSeeds() {
		f.Add(EncodeFrame(s.ftype, s.payload))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk every stacked frame in the input, not just the first.
		rest := data
		for len(rest) > 0 {
			ftype, payload, next, err := DecodeFrame(rest)
			if err != nil {
				return
			}
			consumed := len(rest) - len(next)
			re, derr := reencodePayload(t, ftype, payload)
			if derr == nil {
				frame := EncodeFrame(ftype, re)
				if !bytes.Equal(frame, rest[:consumed]) {
					t.Fatalf("frame %#02x: accepted %d bytes re-encode to %d different bytes", ftype, consumed, len(frame))
				}
			}
			rest = next
		}
	})
}
