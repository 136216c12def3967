package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"

	"fractos/internal/sim"
)

func TestQuantileNearestRank(t *testing.T) {
	// 1..200: the nearest-rank p50 is the 100th sample, p99 the 198th.
	var xs []sim.Time
	for i := 200; i >= 1; i-- {
		xs = append(xs, sim.Time(i))
	}
	s := sortedCopy(xs)
	cases := []struct {
		q          float64
		want       sim.Time
		wantBeyond int
	}{{0.5, 100, 100}, {0.99, 198, 2}, {1, 200, 0}, {0, 1, 199}}
	for _, c := range cases {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := beyond(len(s), c.q); got != c.wantBeyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.wantBeyond)
		}
	}
	if xs[0] != 200 {
		t.Error("sortedCopy reordered its input")
	}
	// 1..50: rank ceil(49.5) = 50, where interpolating would give 49.5.
	if got := quantile(s[:50], 0.99); got != 50 {
		t.Errorf("quantile(1..50, 0.99) = %v, want 50", got)
	}
	// Ties: beyond counts ranks, not distinct values.
	same := []sim.Time{7, 7, 7, 7}
	if quantile(same, 0.5) != 7 || beyond(len(same), 0.5) != 2 {
		t.Error("quantile of equal samples")
	}
	if quantile(nil, 0.5) != 0 || beyond(0, 0.99) != 0 {
		t.Error("empty samples")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.add("proc.Call", 1, true, 0, 100)
	tr.add("stage.compute", 1, false, 10, 30)
	tr.add("proc.Invoke", 1, false, 20, 50) // overlaps the one above
	tr.add("proc.Revoke", 1, false, 100, 110)
	tr.add("proc.Call", 2, true, 0, 40) // request 2 has no children
	var nilTr *tracer
	nilTr.add("ignored", 1, true, 0, 1)

	sp := tr.summarize()
	call := sp["proc.Call"]
	if call.self[0] != 60 || call.self[1] != 40 {
		t.Errorf("Call self = %v, want [60 40]", call.self)
	}
	if inv := sp["proc.Invoke"]; inv.dur[0] != 30 || inv.self[0] != 30 {
		t.Errorf("Invoke dur/self = %v/%v", inv.dur, inv.self)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"fractos/internal/core.(*Controller).serve":                  "core",
		"fractos/internal/device/gpu.(*Device).Exec":                 "gpu",
		"fractos/internal/app/faceverify.l1":                         "faceverify",
		"fractos/internal/testbed/stacks.workHandler":                "stacks",
		"fractos/internal/sim.NewChan[go.shape.*fractos/internal/x]": "sim",
		"main.(*chainRound).serve.func1":                             "bench",
		"runtime.mallocgc":                                           "",
		"fractos/internalx.F":                                        "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostLayer(t *testing.T) {
	stacks := [][]string{
		// malloc called from wire, called from core: charged to wire.
		{"runtime.mallocgc", "fractos/internal/wire.Marshal", "fractos/internal/core.(*Controller).serve", "runtime.goexit"},
		// a goroutine switch under the sim kernel: charged to sim.
		{"runtime.mcall", "fractos/internal/sim.(*Task).park", "main.main"},
		// no layer frame at all.
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
		{"main.transform", "fractos/internal/sim.(*Task).exec"},
	}
	got := attribute(stacks, []int64{10, 20, 30, 40})
	want := map[string]int64{"wire": 10, "sim": 20, "runtime": 30, "bench": 40}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attribute[%s] = %d, want %d", k, got[k], v)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) field(num int, x uint64) { p.varint(uint64(num)<<3 | 0); p.varint(x) }

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func TestDecodeProfile(t *testing.T) {
	var fn1, fn2, fn3, loc1, loc2, s1, s2, sample1, sample2, prof pb
	// functions: 1 = core.serve, 2 = wire.Marshal (inlined into 1), 3 = runtime.mallocgc
	fn1.field(1, 1)
	fn1.field(2, 1)
	fn2.field(1, 2)
	fn2.field(2, 2)
	fn3.field(1, 3)
	fn3.field(2, 3)
	// location 1: wire.Marshal inlined into core.serve; location 2: mallocgc.
	var line1, line2, line3 pb
	line1.field(1, 2)
	line2.field(1, 1)
	line3.field(1, 3)
	loc1.field(1, 1)
	loc1.bytes(4, line1.b)
	loc1.bytes(4, line2.b)
	loc2.field(1, 2)
	loc2.bytes(4, line3.b)
	// sample 1: packed locations and values; sample 2: unpacked.
	s1.varint(2)
	s1.varint(1)
	sample1.bytes(1, s1.b)
	s2.varint(1)
	s2.varint(7000)
	sample1.bytes(2, s2.b)
	sample2.field(1, 1)
	sample2.field(2, 1)
	sample2.field(2, 3000)

	prof.bytes(2, sample1.b)
	prof.bytes(2, sample2.b)
	prof.bytes(4, loc1.b)
	prof.bytes(4, loc2.b)
	prof.bytes(5, fn1.b)
	prof.bytes(5, fn2.b)
	prof.bytes(5, fn3.b)
	for _, s := range []string{"", "fractos/internal/core.(*Controller).serve",
		"fractos/internal/wire.Marshal", "runtime.mallocgc"} {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	stacks, weights, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 || weights[0] != 7000 || weights[1] != 3000 {
		t.Fatalf("stacks %v weights %v", stacks, weights)
	}
	want := []string{"runtime.mallocgc", "fractos/internal/wire.Marshal", "fractos/internal/core.(*Controller).serve"}
	if len(stacks[0]) != 3 || stacks[0][0] != want[0] || stacks[0][1] != want[1] || stacks[0][2] != want[2] {
		t.Errorf("stack 0 = %v, want %v", stacks[0], want)
	}
	if got := attribute(stacks, weights); got["wire"] != 10000 {
		t.Errorf("attribute = %v", got)
	}
	if _, _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestRealProfileAttribution profiles a simulation-kernel busy loop
// and checks that the runtime's own profile decodes and charges the
// loop to the sim layer.
func TestRealProfileAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a few hundred milliseconds of CPU profile")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		k := sim.New(1)
		k.Spawn("spin", func(tk *sim.Task) {
			for i := 0; i < 20000; i++ {
				tk.Yield()
			}
		})
		k.Run()
	}
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := attribute(stacks, weights)
	var total int64
	for _, v := range shares {
		total += v
	}
	if total == 0 {
		t.Skip("no CPU samples collected")
	}
	// Everything charged to a layer is the kernel's. (The runtime's own
	// share varies: the race detector's frames carry no layer.)
	if layered := total - shares["runtime"]; shares["sim"] == 0 || float64(shares["sim"]) < 0.9*float64(layered) {
		t.Errorf("sim share of layered samples too small: %v", shares)
	}
}
