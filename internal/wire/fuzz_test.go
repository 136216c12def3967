package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUnmarshalRandomBytesNeverPanics throws random garbage at the
// decoder: Controllers parse messages from untrusted Processes, so
// decoding must fail cleanly, never panic or over-allocate.
func TestUnmarshalRandomBytesNeverPanics(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(n)%2048)
		rng.Read(buf)
		m, err := Unmarshal(buf)
		// Either it decodes into a registered message or errors; both
		// are fine. No panic is the property.
		return m != nil || err != nil || len(buf) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalBitflippedMessages corrupts valid encodings: every
// mutation must either decode to some message or error cleanly.
func TestUnmarshalBitflippedMessages(t *testing.T) {
	msgs := sampleMessages()
	rng := rand.New(rand.NewSource(99))
	for _, m := range msgs {
		b := Marshal(m)
		for trial := 0; trial < 50; trial++ {
			mut := append([]byte(nil), b...)
			// Flip up to 4 random bits.
			for k := 0; k < 1+rng.Intn(4); k++ {
				i := rng.Intn(len(mut))
				mut[i] ^= 1 << uint(rng.Intn(8))
			}
			_, _ = Unmarshal(mut) // must not panic
		}
	}
}

// TestHeaderOnlyMessages: a bare type header with no body must decode
// (zero-value) or error, never panic.
func TestHeaderOnlyMessages(t *testing.T) {
	for typ := Type(0); typ < 1024; typ++ {
		_, _ = Unmarshal([]byte{byte(typ), byte(typ >> 8)})
	}
}

// FuzzUnmarshal is the native fuzz target for the decoder, seeded with
// the frame of every sample message. Arbitrary bytes must never panic,
// and whenever a frame decodes, re-encoding it and decoding again must
// give identical bytes: a decoded message is always re-encodable to a
// canonical frame that is a fixed point of the codec.
//
//	go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 20s ./internal/wire/
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Marshal(m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		first := Marshal(m)
		again, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("%T: re-encoded frame does not decode: %v\nframe %x", m, err, first)
		}
		if second := Marshal(again); !bytes.Equal(first, second) {
			t.Fatalf("%T: re-encode not stable\nfirst  %x\nsecond %x", m, first, second)
		}
	})
}
