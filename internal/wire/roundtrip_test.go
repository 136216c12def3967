package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fractos/internal/cap"
)

// TestReencodeByteEquality is the round-trip property under pooled
// codecs: encode → decode → re-encode must be byte-identical, with
// every encode going through a Codec obtained from (and released back
// to) the pool. Running all messages twice interleaves pool reuse, so
// a stale-buffer bug — a pooled Codec leaking bytes from its previous
// life — would show up as a mismatch.
func TestReencodeByteEquality(t *testing.T) {
	for round := 0; round < 2; round++ {
		for _, m := range sampleMessages() {
			c1 := GetCodec()
			frame := append([]byte(nil), c1.Encode(m)...)
			c1.Release()

			decoded, err := Unmarshal(frame)
			if err != nil {
				t.Fatalf("round %d %T: unmarshal: %v", round, m, err)
			}
			c2 := GetCodec()
			again := c2.Encode(decoded)
			if !bytes.Equal(frame, again) {
				t.Errorf("round %d %T: re-encode mismatch\n in: %x\nout: %x",
					round, m, frame, again)
			}
			c2.Release()
		}
	}
}

// TestPooledEncodeMatchesMarshal checks the fabric's encode-then-decode
// path against the reference: one pooled Codec reused across every
// message type must encode the same bytes as a fresh Marshal (reuse
// must not leak previous contents), and decoding its own frame must
// give back the original message.
func TestPooledEncodeMatchesMarshal(t *testing.T) {
	c := GetCodec()
	defer c.Release()
	for _, m := range sampleMessages() {
		want := Marshal(m)
		frame := c.Encode(m)
		if !bytes.Equal(want, frame) {
			t.Errorf("%T: pooled Encode != Marshal\nwant %x\n got %x", m, want, frame)
		}
		got, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("%T: decode own frame: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T: decode of own frame mismatch:\n in: %+v\nout: %+v", m, m, got)
		}
	}
}

// TestInvokeRoundTripRandomized hammers the highest-volume message
// (request_invoke) with random payload shapes: arbitrary immediate
// arguments and capability slots must round-trip byte-identically.
func TestInvokeRoundTripRandomized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &ReqInvoke{Token: rng.Uint64(), Cid: cap.CapID(rng.Uint32())}
		for i := 0; i < rng.Intn(4); i++ {
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			m.Imms = append(m.Imms, ImmArg{Offset: uint32(rng.Intn(512)), Data: data})
		}
		for i := 0; i < rng.Intn(4); i++ {
			m.Caps = append(m.Caps, CapSlot{Slot: uint16(rng.Intn(8)), Cid: cap.CapID(rng.Uint32())})
		}

		c := GetCodec()
		frame := append([]byte(nil), c.Encode(m)...)
		c.Release()
		if want := 2 + 8 + 4 + 2 + 2 + 6*len(m.Caps); len(frame) != want+8*len(m.Imms)+immBytes(m.Imms) {
			t.Logf("seed %d: encoded %d bytes", seed, len(frame))
			return false
		}

		decoded, err := Unmarshal(frame)
		if err != nil {
			t.Logf("seed %d: unmarshal: %v", seed, err)
			return false
		}
		again := Marshal(decoded)
		if !bytes.Equal(frame, again) {
			t.Logf("seed %d: re-encode mismatch", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func immBytes(imms []ImmArg) int {
	n := 0
	for _, a := range imms {
		n += len(a.Data)
	}
	return n
}

// TestDecodedMessageDoesNotAliasFrame verifies the ownership rule the
// fabric's frame pooling depends on: after Unmarshal, mutating the
// frame buffer must not affect the decoded message's payloads.
func TestDecodedMessageDoesNotAliasFrame(t *testing.T) {
	m := &ReqInvoke{Token: 7, Cid: 9,
		Imms: []ImmArg{{Offset: 4, Data: []byte("payload-bytes")}},
		Caps: []CapSlot{{Slot: 0, Cid: 3}}}
	frame := Marshal(m)
	decodedAny, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	decoded := decodedAny.(*ReqInvoke)
	want := append([]byte(nil), decoded.Imms[0].Data...)
	for i := range frame {
		frame[i] = 0xFF
	}
	if !bytes.Equal(decoded.Imms[0].Data, want) {
		t.Fatalf("decoded payload aliases the frame: %x", decoded.Imms[0].Data)
	}
}
