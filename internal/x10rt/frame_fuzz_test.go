package x10rt

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame parser and, for
// frames that parse, at the gob wire-message decoder. Neither layer may
// panic or over-allocate, whatever the input: the frame header is
// validated before any allocation, and decodeWireMsg converts gob's
// panics into errors. The committed corpus under testdata/fuzz seeds the
// interesting shapes (valid message, truncations, corrupt magic/version,
// oversized length).
func FuzzDecodeFrame(f *testing.F) {
	// A genuine frame carrying a registered payload type.
	m := wireMsg{Src: 3, ID: UserHandlerBase, Class: ControlClass, Bytes: 24,
		Payload: wirePayload{Value: 42}}
	valid, err := encodeWireMsg(&m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                                     // truncated payload
	f.Add([]byte{})                                                 // empty
	f.Add([]byte{frameMagic, frameVersion, 0, 0, 0, 0})             // empty payload
	f.Add([]byte{frameMagic, frameVersion + 9, 0, 0, 0, 1})         // bad version
	f.Add([]byte{0x00, frameVersion, 0, 0, 0, 0})                   // bad magic
	f.Add([]byte{frameMagic, frameVersion, 0xff, 0xff, 0xff, 0xff}) // huge length
	f.Add(append(append([]byte{}, valid...), valid...))             // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		// Streaming parser: must terminate, never panic, never allocate
		// beyond MaxFrameSize per frame.
		payload, rest, err := DecodeFrame(data)
		if err == nil {
			if len(payload) > MaxFrameSize {
				t.Fatalf("payload %d exceeds MaxFrameSize", len(payload))
			}
			if len(payload)+len(rest)+frameHeaderSize != len(data) {
				t.Fatalf("frame accounting: %d + %d + %d != %d",
					len(payload), len(rest), frameHeaderSize, len(data))
			}
			// Whatever decodes must be harmless: error or message, no panic.
			_, _ = decodeWireMsg(payload)
		}
		// Reader-based parser must agree with the slicing parser on the
		// first frame.
		rp, rerr := ReadFrame(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			// DecodeFrame reports short input as io.ErrUnexpectedEOF too;
			// the only asymmetry allowed is ReadFrame seeing io.EOF on
			// fully empty input.
			if !(len(data) == 0 && rerr == io.EOF) {
				t.Fatalf("DecodeFrame err=%v, ReadFrame err=%v", err, rerr)
			}
		}
		if err == nil && !bytes.Equal(rp, payload) {
			t.Fatalf("ReadFrame payload %q != DecodeFrame payload %q", rp, payload)
		}
	})
}

// FuzzFrameRoundTrip checks that anything we frame comes back intact
// through both decoders.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xA7}, 64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		framed, err := AppendFrame(nil, payload)
		if err != nil {
			t.Skip() // oversized payload, rejected by design
		}
		got, rest, err := DecodeFrame(framed)
		if err != nil || len(rest) != 0 || !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip: got=%q rest=%d err=%v", got, len(rest), err)
		}
		rgot, err := ReadFrame(bytes.NewReader(framed))
		if err != nil || !bytes.Equal(rgot, payload) {
			t.Fatalf("ReadFrame roundtrip: got=%q err=%v", rgot, err)
		}
	})
}
