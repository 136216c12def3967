package exp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"fractos/internal/sim"
)

// goldenEvents is the number of simulation events each experiment
// processes (sim.TotalEvents delta).
var goldenEvents = map[string]uint64{
	"table3":        40,
	"fig2":          7546,
	"fig5":          4240,
	"fig6":          752,
	"fig7":          1169,
	"fig8":          12330,
	"fig9":          98775,
	"fig10":         58178,
	"fig11":         105159,
	"fig12":         48009,
	"fig13":         97248,
	"scaling-fv":    193811,
	"scaling-route": 1090134,
	"chaos-fv":      167036,
	"abl-direct":    15111,
	"abl-msgs":      3056,
	"abl-dbuf":      1098,
	"abl-conc-copy": 42429,
	"abl-window":    11781,
	"abl-revtree":   2066,
	"abl-placement": 176,
}

// goldenTraceSHA is the SHA-256 of the rendered fabric traces of the
// two TestTraceDeterminism workloads.
var goldenTraceSHA = map[string]string{
	"faceverify": "cdaa0df1ec69cd4418cd08306fd58e81a063dd26773ab3bef18716fd23e2ddee",
	"pipeline":   "fb51a1cfc055fe2c7fbd7349d083b024a9a68c2ec80924f8888e6e877cead795",
}

// TestGoldenEval pins the whole evaluation: every exp.All() table must
// render byte-identically to testdata/eval.golden, every experiment
// must process the same number of simulation events, and the
// faceverify and pipeline fabric traces must hash the same. A change
// that is meant to leave behaviour alone (a refactor, a deletion, a
// host-side optimisation) must pass it unchanged.
//
// The golden file is the output of fractos-bench without its
// wall-clock lines; its first line is the command's banner. Regenerate
// it from the repository root with:
//
//	go run ./cmd/fractos-bench | grep -v 'regenerated in' > internal/exp/testdata/eval.golden
//
// The event counts and trace hashes live in the maps above; a failure
// prints the values to put there.
func TestGoldenEval(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	golden, err := os.ReadFile("testdata/eval.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := strings.Cut(string(golden), "\n")

	var got strings.Builder
	for _, s := range All() {
		e0 := sim.TotalEvents()
		s.Run().Print(&got)
		if n := sim.TotalEvents() - e0; n != goldenEvents[s.ID] {
			t.Errorf("%s processed %d events, golden %d", s.ID, n, goldenEvents[s.ID])
		}
	}
	if got.String() != want {
		diffTraces(t, "eval tables", want, got.String())
	}

	for name, trace := range map[string]func(*testing.T) string{
		"faceverify": traceFV,
		"pipeline":   tracePipeline,
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(trace(t)))); sum != goldenTraceSHA[name] {
			t.Errorf("%s trace sha256 %s, golden %s", name, sum, goldenTraceSHA[name])
		}
	}
}
