package x10rt

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatch throws arbitrary bytes at the batch payload decoder
// (flags byte, optional DEFLATE envelope, uvarint count, shared gob
// stream). The decoder must never panic — gob's panics are converted to
// errors — and must validate every declared length before allocating,
// so a hostile peer can cost at most its own connection. The committed
// corpus under testdata/fuzz seeds the interesting shapes: a valid
// batch, a torn batch, a zero-frame batch, an oversized length prefix,
// and garbage behind the compressed flag.
func FuzzDecodeBatch(f *testing.F) {
	msgs := []BatchMsg{
		{ID: UserHandlerBase, Payload: wirePayload{Value: 1, Tag: "a"}, Bytes: 16, Class: ControlClass},
		{ID: HandlerFinishCtl, Payload: wirePayload{Value: 2, Tag: "b"}, Bytes: 24, Class: DataClass},
	}
	raw, err := appendBatchFrame(nil, 1, msgs, 0)
	if err != nil {
		f.Fatal(err)
	}
	comp, err := appendBatchFrame(nil, 1, msgs, 1)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds are frame *payloads* (flags + body), the decoder's input.
	f.Add(raw[frameHeaderSize:])
	f.Add(comp[frameHeaderSize:])
	f.Add(raw[frameHeaderSize : len(raw)-5])                    // torn batch
	f.Add([]byte{0x00, 0x00})                                   // zero-frame batch
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})     // oversized length prefix
	f.Add(append([]byte{0x01, 0x40}, []byte("deflate? no")...)) // compressed-bit garbage
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		decoded, err := decodeBatchPayload(payload)
		if err != nil {
			return
		}
		if len(decoded) == 0 {
			t.Fatal("decode succeeded with zero messages")
		}
		if len(decoded) > maxBatchCount {
			t.Fatalf("decoded %d messages, beyond maxBatchCount", len(decoded))
		}
	})
}

// FuzzBatchFrameRoundTrip fuzzes the versioned frame reader with
// arbitrary streams: whatever parses must re-frame to the same
// version/payload, and batch payloads must decode without panicking.
func FuzzBatchFrameRoundTrip(f *testing.F) {
	msgs := []BatchMsg{{ID: UserHandlerBase, Payload: wirePayload{Value: 7}, Bytes: 8, Class: DataClass}}
	frame, err := appendBatchFrame(nil, 0, msgs, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	single, err := encodeWireMsg(&wireMsg{Src: 0, ID: UserHandlerBase, Payload: wirePayload{Value: 7}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	f.Add([]byte{frameMagic, batchVersion, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		version, payload, err := readVersionedFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("payload %d exceeds MaxFrameSize", len(payload))
		}
		switch version {
		case frameVersion:
			_, _ = decodeWireMsg(payload)
		case batchVersion, batchVersionTraced:
			_, _ = decodeBatchPayload(payload)
		case batchVersionCodec:
			_, _, _ = decodeCodecBatchPayloadLG(payload, &typeTableReceiver{}, nil, 1)
		case frameVersionOneSided:
			cr := &countingReader{r: bytes.NewReader(payload)}
			_, _, _, _ = parseOneSidedHeader(cr, len(payload))
		default:
			t.Fatalf("accepted unknown version %d", version)
		}
	})
}
