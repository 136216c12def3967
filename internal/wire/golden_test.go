package wire

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFramesGolden pins the wire format byte for byte: every
// sampleMessages() entry must encode to the hex frame recorded in
// testdata/frames.golden, and that frame must decode back to a message
// that re-encodes identically. The trace hashes in TestGoldenEval pin
// only frame types, sizes and timings; this test pins their contents.
// The file is a compatibility record, not a snapshot: a codec change
// that needs it edited changes the protocol.
func TestFramesGolden(t *testing.T) {
	f, err := os.Open("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, frame, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	msgs := sampleMessages()
	if len(want) != len(msgs) {
		t.Errorf("golden file has %d frames, sampleMessages has %d", len(want), len(msgs))
	}
	for _, m := range msgs {
		name := fmt.Sprintf("%T", m)
		got := hex.EncodeToString(Marshal(m))
		if got != want[name] {
			t.Errorf("%s: frame changed\nwant %s\n got %s", name, want[name], got)
			continue
		}
		b, _ := hex.DecodeString(want[name])
		decoded, err := Unmarshal(b)
		if err != nil {
			t.Errorf("%s: golden frame does not decode: %v", name, err)
			continue
		}
		if again := hex.EncodeToString(Marshal(decoded)); again != want[name] {
			t.Errorf("%s: golden frame re-encodes to %s", name, again)
		}
	}
}
