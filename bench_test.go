// Package repro benchmarks regenerate every table and figure of the
// paper's evaluation (§6). The system under test runs on a
// deterministic virtual clock, so wall-clock ns/op measures simulation
// speed, not system performance; the paper-relevant results are
// emitted as custom metrics (vus = virtual microseconds, MB/s, req/s)
// and as the text tables printed by cmd/fractos-bench.
//
// Every benchmark also reports allocs/op (ReportAllocs) and the
// wall-clock simulation throughput in events/sec, so `go test -bench`
// doubles as a regression gate for the simulator's own speed (see
// docs/PERFORMANCE.md for the methodology and benchstat workflow).
package main

import (
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/exp"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// marshalSink and unmarshalSink keep the allocation-gate encode and
// decode results live so the compiler cannot elide the calls under
// test.
var (
	marshalSink   []byte
	unmarshalSink wire.Message
)

// validateSink keeps the validation-gate results live so the compiler
// cannot elide the calls under test.
var validateSink *cap.Node

// TestAllocGateKernelDispatch pins the zero-alloc property the
// allocfree analyzer enforces statically on the //fractos:hotpath
// kernel functions: steady-state event dispatch — After(0) chains over
// a warmed event pool and run-queue ring — must not allocate per
// event. The only tolerated allocations are the one deferred
// flush closure each Run call makes (amortized over every event of
// the run) plus measurement noise.
func TestAllocGateKernelDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const eventsPerRun = 1000
	k := sim.New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n%eventsPerRun != 0 {
			k.After(0, step)
		}
	}
	// Warm-up run: primes the event pool and grows the ring once.
	k.After(0, step)
	k.Run()
	perRun := testing.AllocsPerRun(20, func() {
		k.After(0, step)
		k.Run()
	})
	if perEvent := perRun / eventsPerRun; perEvent > 0.01 {
		t.Errorf("kernel dispatch allocates %.4f objects/event (%.1f per %d-event run); hot path must be allocation-free",
			perEvent, perRun, eventsPerRun)
	}
}

// TestAllocGateKernelTaskDispatch pins the same property for the event
// loop with tasks in it (sim.Task.park and the coroutine switches
// around it): two tasks receive from sim.Chans fed by future After
// closures — the fabric's delivery pattern — so each message is a
// closure the driver runs at a later instant plus the wake it causes. Warm RunUntil windows
// over the long-lived tasks must not allocate per event.
func TestAllocGateKernelTaskDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const window = sim.Time(20000) // 20 µs: ~270 messages, ~530 events
	k := sim.New(1)
	defer k.Shutdown()
	for _, d := range []sim.Time{100, 300} {
		inbox := sim.NewChan[int](k, "inbox", 0)
		feed := func() { inbox.TrySend(1) }
		k.Spawn("rx", func(tk *sim.Task) {
			for {
				k.After(d, feed)
				inbox.Recv(tk)
			}
		})
	}
	// Warm-up window: primes the event pool, the heap and the channels'
	// waiter free lists.
	k.RunUntil(k.Now() + window)
	e0 := sim.TotalEvents()
	k.RunUntil(k.Now() + window)
	eventsPerRun := float64(sim.TotalEvents() - e0)
	perRun := testing.AllocsPerRun(20, func() {
		k.RunUntil(k.Now() + window)
	})
	if perEvent := perRun / eventsPerRun; perEvent > 0.01 {
		t.Errorf("task-driven dispatch allocates %.4f objects/event (%.1f per %.0f-event window); hot path must be allocation-free",
			perEvent, perRun, eventsPerRun)
	}
}

// TestAllocGateWireMarshal pins the wire codec's allocation contract:
// Marshal performs exactly one allocation (the exact-size buffer), the
// pooled GetCodec/Encode/Release path performs none at steady state,
// Unmarshal allocates only the decoded message (its Codec comes from
// the pool), and the encode-then-decode path fabric.Net.Send runs on
// one pooled Codec allocates only the delivered message.
func TestAllocGateWireMarshal(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := &wire.Completion{Token: 7, Status: wire.StatusOK, Aux: 42}
	if per := testing.AllocsPerRun(100, func() {
		marshalSink = wire.Marshal(m)
	}); per > 1 {
		t.Errorf("wire.Marshal allocates %.1f objects/op, want <= 1 (the exact-size buffer)", per)
	}
	// Warm the codec pool once so the gates measure steady state.
	c := wire.GetCodec()
	c.Encode(m)
	c.Release()
	if per := testing.AllocsPerRun(100, func() {
		c := wire.GetCodec()
		c.Encode(m)
		c.Release()
	}); per > 0 {
		t.Errorf("pooled Encode path allocates %.1f objects/op, want 0", per)
	}
	frame := wire.Marshal(m)
	if per := testing.AllocsPerRun(100, func() {
		unmarshalSink, _ = wire.Unmarshal(frame)
	}); per != 1 {
		t.Errorf("wire.Unmarshal of a Completion allocates %.1f objects/op, want 1 (the message)", per)
	}
	if per := testing.AllocsPerRun(100, func() {
		c := wire.GetCodec()
		unmarshalSink, _ = c.Decode(c.Encode(m))
		c.Release()
	}); per != 1 {
		t.Errorf("pooled encode-then-decode allocates %.1f objects/op, want 1 (the decoded message)", per)
	}
}

// TestAllocGateCapValidate pins the capability engine's validation
// contract: Controller.Validate — the epoch-fenced revtree probe on
// every syscall's fast path — performs zero allocations, with the
// owning Process's capability space soaked at a million live entries
// so the measurement reflects slab-backed O(1) lookups, not a small
// warm space. This is the CI gate behind the cap-scale acceptance
// criterion (see docs/PERFORMANCE.md).
func TestAllocGateCapValidate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const soak = 1_000_000
	cl := core.NewCluster(core.ClusterConfig{Nodes: 2, Placement: core.CtrlShared, Seed: 31})
	srv := proc.Attach(cl, 0, "srv", 1<<12)
	ctrl := cl.Ctrls[0]
	var ref cap.Ref
	ready := false
	cl.K.Spawn("setup", func(tk *sim.Task) {
		mem, _, err := srv.AllocMemory(tk, 4096, cap.MemRights)
		if err != nil {
			return
		}
		e, ok := ctrl.EntryOf(srv.ID(), mem.ID())
		if !ok {
			return
		}
		ref = e.Ref
		// Soak the space: a million live bystander capabilities, so the
		// gated lookups run against paper-scale occupancy.
		for i := 1; i < soak; i++ {
			if _, ok := ctrl.GrantEntry(srv.ID(), e); !ok {
				return
			}
		}
		ready = true
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !ready {
		t.Fatal("setup did not complete")
	}
	if n, st := ctrl.Validate(ref, cap.Read); n == nil || st != wire.StatusOK {
		t.Fatalf("validate fast path missed: status %v", st)
	}
	if per := testing.AllocsPerRun(1000, func() {
		n, st := ctrl.Validate(ref, cap.Read)
		if n == nil || st != wire.StatusOK {
			t.Fatal("validate fast path missed inside gate")
		}
		validateSink = n
	}); per > 0 {
		t.Errorf("Controller.Validate allocates %.2f objects/op at %d live caps, want 0", per, soak)
	}
}

// runExp drives one experiment through the benchmark loop, reporting
// allocations and the wall-clock event throughput (kernel events
// processed per second of host time) alongside the virtual-time
// metrics. The returned table is from the final iteration.
func runExp(b *testing.B, fn func() *exp.Table) *exp.Table {
	b.Helper()
	b.ReportAllocs()
	var t *exp.Table
	e0 := sim.TotalEvents()
	for i := 0; i < b.N; i++ {
		t = fn()
	}
	if d := b.Elapsed(); d > 0 {
		b.ReportMetric(float64(sim.TotalEvents()-e0)/d.Seconds(), "events/sec")
	}
	return t
}

// reportMetrics forwards an experiment's headline metrics through the
// benchmark framework.
func reportMetrics(b *testing.B, t *exp.Table, metrics map[string]string) {
	b.Helper()
	for key, unit := range metrics {
		v, ok := t.Metrics[key]
		if !ok {
			b.Fatalf("metric %q missing (have %v)", key, t.Metrics)
		}
		b.ReportMetric(v, unit)
	}
}

// BenchmarkTable3NullOp regenerates Table 3 (null-operation latency).
func BenchmarkTable3NullOp(b *testing.B) {
	t := runExp(b, exp.Table3)
	reportMetrics(b, t, map[string]string{
		"table3.null-cpu-us":  "vus-cpu",
		"table3.null-snic-us": "vus-snic",
	})
}

// BenchmarkFigure2Traffic regenerates the Figure 2 traffic analysis.
func BenchmarkFigure2Traffic(b *testing.B) {
	t := runExp(b, exp.Figure2)
	reportMetrics(b, t, map[string]string{
		"fig2.bytes-reduction":   "x-bytes",
		"fig2.datamsg-reduction": "x-datamsgs",
	})
}

// BenchmarkFigure5MemoryCopy regenerates Figure 5 (memory_copy
// throughput vs size).
func BenchmarkFigure5MemoryCopy(b *testing.B) {
	t := runExp(b, exp.Figure5)
	reportMetrics(b, t, map[string]string{
		"fig5.copy1b-cpu-us":     "vus-1B-cpu",
		"fig5.copy256k-cpu-mbps": "MBps-256K",
	})
}

// BenchmarkFigure6Invoke regenerates Figure 6 (RPC latency).
func BenchmarkFigure6Invoke(b *testing.B) {
	t := runExp(b, exp.Figure6)
	reportMetrics(b, t, map[string]string{
		"fig6.rpc8-cpu1x-us": "vus-1x",
		"fig6.rpc8-cpu2x-us": "vus-2x",
	})
}

// BenchmarkFigure7Caps regenerates Figure 7 (delegation/revocation).
func BenchmarkFigure7Caps(b *testing.B) {
	t := runExp(b, exp.Figure7)
	reportMetrics(b, t, map[string]string{
		"fig7.deleg1-cpu-us":         "vus-deleg",
		"fig7.revoke8-shared-us":     "vus-revoke-shared",
		"fig7.revoke8-individual-us": "vus-revoke-each",
	})
}

// BenchmarkFigure8Pipeline regenerates Figure 8 (star / fast-star /
// chain composition).
func BenchmarkFigure8Pipeline(b *testing.B) {
	t := runExp(b, exp.Figure8)
	reportMetrics(b, t, map[string]string{
		"fig8.star-over-fast-64k": "x-64K",
		"fig8.fast-over-chain-4k": "x-4K",
	})
}

// BenchmarkFigure9GPU regenerates Figure 9 (GPU service vs rCUDA).
func BenchmarkFigure9GPU(b *testing.B) {
	t := runExp(b, exp.Figure9)
	reportMetrics(b, t, map[string]string{
		"fig9.lat64-rcuda-over-fractos": "x-latency",
		"fig9.tput4-fractos":            "reqps",
	})
}

// BenchmarkFigure10Storage regenerates Figure 10 (storage latency).
func BenchmarkFigure10Storage(b *testing.B) {
	t := runExp(b, exp.Figure10)
	reportMetrics(b, t, map[string]string{
		"fig10.read4k-dax-us":        "vus-dax-4k",
		"fig10.read256K-dax-speedup": "x-dax-256K",
	})
}

// BenchmarkFigure11StorageTput regenerates Figure 11 (storage
// throughput).
func BenchmarkFigure11StorageTput(b *testing.B) {
	t := runExp(b, exp.Figure11)
	reportMetrics(b, t, map[string]string{
		"fig11.rand-dax-mbps": "MBps-dax",
		"fig11.rand-fs-mbps":  "MBps-fs",
	})
}

// BenchmarkFigure12E2ELatency regenerates Figure 12 (end-to-end
// latency; the paper's 47% headline).
func BenchmarkFigure12E2ELatency(b *testing.B) {
	t := runExp(b, exp.Figure12)
	reportMetrics(b, t, map[string]string{
		"fig12.speedup32":        "x-speedup",
		"fig12.lat32-fractos-ms": "vms-fractos",
	})
}

// BenchmarkFigure13E2ETput regenerates Figure 13 (end-to-end
// throughput).
func BenchmarkFigure13E2ETput(b *testing.B) {
	t := runExp(b, exp.Figure13)
	reportMetrics(b, t, map[string]string{
		"fig13.tput4-fractos":  "reqps",
		"fig13.tput4-baseline": "reqps-base",
	})
}

// BenchmarkAblationDirect measures the mediated/composed/leased
// storage-interface ablation.
func BenchmarkAblationDirect(b *testing.B) {
	t := runExp(b, exp.AblationDirectComposition)
	reportMetrics(b, t, map[string]string{
		"abl-direct.fs-us":     "vus-fs",
		"abl-direct.direct-us": "vus-direct",
		"abl-direct.dax-us":    "vus-dax",
	})
}

// BenchmarkAblationDoubleBuffer measures the double-buffering ablation.
func BenchmarkAblationDoubleBuffer(b *testing.B) {
	t := runExp(b, exp.AblationDoubleBuffer)
	reportMetrics(b, t, map[string]string{"abl-dbuf.gain-1m": "x-gain"})
}

// BenchmarkAblationConcurrentCopies measures §6.1's concurrent-copy
// saturation.
func BenchmarkAblationConcurrentCopies(b *testing.B) {
	t := runExp(b, exp.AblationConcurrentCopies)
	reportMetrics(b, t, map[string]string{
		"abl-conc-copy.cpu4k-1":  "MBps-1",
		"abl-conc-copy.cpu4k-16": "MBps-16",
	})
}

// BenchmarkAblationMessageComplexity measures §2.1's message counts.
func BenchmarkAblationMessageComplexity(b *testing.B) {
	t := runExp(b, exp.AblationMessageComplexity)
	reportMetrics(b, t, map[string]string{
		"abl-msgs.ratio8": "x-star-over-chain",
	})
}

// BenchmarkAblationWindow measures the congestion-window ablation.
func BenchmarkAblationWindow(b *testing.B) {
	t := runExp(b, exp.AblationWindow)
	reportMetrics(b, t, map[string]string{
		"abl-window.w1":  "rpcps-w1",
		"abl-window.w32": "rpcps-w32",
	})
}

// BenchmarkAblationRevtreeDepth measures deep-tree revocation.
func BenchmarkAblationRevtreeDepth(b *testing.B) {
	t := runExp(b, exp.AblationRevtreeDepth)
	reportMetrics(b, t, map[string]string{"abl-revtree.d256-us": "vus-d256"})
}

// BenchmarkAblationPlacement measures controller-placement costs.
func BenchmarkAblationPlacement(b *testing.B) {
	t := runExp(b, exp.AblationPlacement)
	reportMetrics(b, t, map[string]string{"abl-placement.shared-null-us": "vus-shared"})
}
