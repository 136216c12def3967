// Package perf is the wall-clock benchmark harness for the
// reproduction itself. The paper-facing benchmarks (bench_test.go)
// report *virtual-time* results — what the simulated hardware did.
// This package instead measures how fast the simulator executes on the
// host: events/sec through the kernel, ns and allocs per codec round
// trip, and end-to-end wall time for the evaluation workloads. Those
// numbers gate the "as fast as the hardware allows" goal in ROADMAP.md
// and are tracked across PRs in BENCH_PR*.json files emitted by
// `fractos-bench -json` (see docs/PERFORMANCE.md).
//
// All timing goes through testing.Benchmark, so this package never
// touches the wall clock directly and stays clean under the simdet
// analyzer; event counts come from sim.TotalEvents.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"fractos/internal/exp"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Kernel-driven cases also report simulation throughput.
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	NsPerEvent   float64 `json:"ns_per_event,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// Report is the JSON document emitted by `fractos-bench -json`.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
	// Experiments carries headline metrics from deterministic
	// virtual-time experiments tracked across PRs (e.g. the chaos-fv
	// availability numbers), keyed "<experiment>.<metric>". Unlike
	// Results these are exactly reproducible, so any drift is a real
	// behavior change.
	Experiments map[string]float64 `json:"experiments,omitempty"`
}

// Case is a runnable benchmark: Fn must loop b.N times.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// Cases lists every benchmark in the suite, hot-path first.
func Cases() []Case {
	cs := []Case{
		{"kernel/dispatch", benchKernelDispatch},
		{"kernel/timers", benchKernelTimers},
		{"kernel/pingpong", benchKernelPingpong},
		{"kernel/spawn", benchKernelSpawn},
		{"wire/invoke", benchWireInvoke},
		{"wire/memcopy", benchWireMemCopy},
		{"wire/completion", benchWireCompletion},
		{"fabric/invoke-path", benchFabricInvoke},
		{"fabric/memcopy-path", benchFabricMemCopy},
		{"exp/figure8", benchFigure8},
		{"exp/faceverify", benchFaceVerify},
	}
	return append(cs, capScaleCases()...)
}

// Find returns the case with the given name.
func Find(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Run executes one case and converts the measurement.
func Run(c Case) Result {
	var evPerOp float64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e0 := sim.TotalEvents()
		c.Fn(b)
		// The final (largest) b.N run overwrites earlier estimates.
		evPerOp = float64(sim.TotalEvents()-e0) / float64(b.N)
	})
	res := Result{
		Name:        c.Name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
	if evPerOp >= 1 {
		res.EventsPerOp = evPerOp
		res.NsPerEvent = res.NsPerOp / evPerOp
		if res.NsPerEvent > 0 {
			res.EventsPerSec = 1e9 / res.NsPerEvent
		}
	}
	return res
}

// RunAll executes every case (or only the named ones) and returns the
// results in suite order.
func RunAll(only ...string) ([]Result, error) {
	var cases []Case
	if len(only) == 0 {
		cases = Cases()
	} else {
		for _, name := range only {
			c, ok := Find(name)
			if !ok {
				return nil, fmt.Errorf("perf: unknown benchmark %q", name)
			}
			cases = append(cases, c)
		}
	}
	results := make([]Result, 0, len(cases))
	for _, c := range cases {
		results = append(results, Run(c))
	}
	return results, nil
}

// WriteJSON renders a Report around the results. experiments may be
// nil; see Report.Experiments.
func WriteJSON(w io.Writer, results []Result, experiments map[string]float64) error {
	rep := Report{
		Schema:    "fractos-bench/1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   results,

		Experiments: experiments,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteText renders results as an aligned text table.
func WriteText(w io.Writer, results []Result) {
	fmt.Fprintf(w, "%-20s %12s %10s %10s %14s %12s\n",
		"benchmark", "ns/op", "allocs/op", "B/op", "events/sec", "ns/event")
	for _, r := range results {
		ev, nsev := "-", "-"
		if r.EventsPerSec > 0 {
			ev = fmt.Sprintf("%.0f", r.EventsPerSec)
			nsev = fmt.Sprintf("%.1f", r.NsPerEvent)
		}
		fmt.Fprintf(w, "%-20s %12.1f %10.1f %10.1f %14s %12s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, ev, nsev)
	}
}

// ---- kernel cases ----

// benchKernelDispatch measures the bare event-dispatch loop: a chain
// of same-instant After(0) closures, no task goroutines involved.
// This is the purest view of scheduler overhead per event.
func benchKernelDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New(1)
		n := 0
		var step func()
		step = func() {
			n++
			if n < 10000 {
				k.After(0, step)
			}
		}
		k.After(0, step)
		k.Run()
	}
}

// benchKernelTimers measures the heap path: 64 tasks sleeping with
// mixed durations, ~6.4k timer events per op plus the park/resume
// handoff for each.
func benchKernelTimers(b *testing.B) {
	// One capture-free body shared by all tasks (the per-task period is
	// derived from the spawn-ordered id), so the benchmark measures the
	// kernel's allocations, not 64 closure captures per iteration.
	body := func(t *sim.Task) {
		d := sim.Time(int(t.ID()-1)%9+1) * 100
		for s := 0; s < 100; s++ {
			t.Sleep(d)
		}
	}
	for i := 0; i < b.N; i++ {
		k := sim.New(7)
		for j := 0; j < 64; j++ {
			k.Spawn("timer", body)
		}
		k.Run()
		k.Shutdown()
	}
}

// benchKernelPingpong measures the task-handoff path: two tasks
// bouncing 5k messages over channels.
func benchKernelPingpong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New(3)
		ping := sim.NewChan[int](k, "ping", 0)
		pong := sim.NewChan[int](k, "pong", 0)
		k.Spawn("echo", func(t *sim.Task) {
			for {
				v, ok := ping.Recv(t)
				if !ok {
					return
				}
				pong.Send(t, v)
			}
		})
		k.Spawn("driver", func(t *sim.Task) {
			for j := 0; j < 5000; j++ {
				ping.Send(t, j)
				pong.Recv(t)
			}
			ping.Close()
		})
		k.Run()
		k.Shutdown()
	}
}

// benchKernelSpawn measures task creation/teardown churn.
func benchKernelSpawn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New(5)
		for j := 0; j < 1000; j++ {
			k.Spawn("w", func(t *sim.Task) { t.Yield() })
		}
		k.Run()
		k.Shutdown()
	}
}

// ---- wire cases ----

// invokeMsg mirrors a typical request_invoke: a small immediate
// payload plus two capability arguments.
func invokeMsg() *wire.ReqInvoke {
	return &wire.ReqInvoke{
		Token: 42,
		Cid:   7,
		Imms:  []wire.ImmArg{{Offset: 0, Data: make([]byte, 64)}},
		Caps:  []wire.CapSlot{{Slot: 0, Cid: 9}, {Slot: 1, Cid: 11}},
	}
}

func benchWireRoundTrip(b *testing.B, m wire.Message) {
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = wire.AppendMarshal(buf[:0], m)
		out, err := wire.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

func benchWireInvoke(b *testing.B) { benchWireRoundTrip(b, invokeMsg()) }

func benchWireMemCopy(b *testing.B) {
	benchWireRoundTrip(b, &wire.MemCopy{Token: 9, SrcCid: 3, DstCid: 4})
}

func benchWireCompletion(b *testing.B) {
	benchWireRoundTrip(b, &wire.Completion{Token: 17, Status: 0, Cid: 5, Aux: 4096})
}

// ---- fabric cases ----

// benchFabricInvoke measures the full message path — marshal, link
// accounting, delivery scheduling, decode, inbox — for a stream of
// request_invoke messages between two nodes.
func benchFabricInvoke(b *testing.B) {
	const msgs = 1000
	for i := 0; i < b.N; i++ {
		k := sim.New(11)
		net := fabric.New(k, fabric.DefaultProfile())
		src := net.Attach("src", fabric.Location{Node: 0}, 0)
		dst := net.Attach("dst", fabric.Location{Node: 1}, 0)
		k.Spawn("rx", func(t *sim.Task) {
			for j := 0; j < msgs; j++ {
				if _, ok := dst.Inbox.Recv(t); !ok {
					return
				}
			}
		})
		k.Spawn("tx", func(t *sim.Task) {
			m := invokeMsg()
			for j := 0; j < msgs; j++ {
				m.Token = uint64(j)
				if !net.Send(src.ID, dst.ID, m) {
					return
				}
				t.Sleep(1000)
			}
		})
		k.Run()
		k.Shutdown()
	}
}

// benchFabricMemCopy measures the memory_copy data path: a control
// message plus a 4 KiB RDMA transfer per op.
func benchFabricMemCopy(b *testing.B) {
	const copies = 1000
	for i := 0; i < b.N; i++ {
		k := sim.New(13)
		net := fabric.New(k, fabric.DefaultProfile())
		src := net.Attach("src", fabric.Location{Node: 0}, 1<<16)
		dst := net.Attach("dst", fabric.Location{Node: 1}, 1<<16)
		k.Spawn("drain", func(t *sim.Task) {
			for j := 0; j < copies; j++ {
				if _, ok := dst.Inbox.Recv(t); !ok {
					return
				}
			}
		})
		k.Spawn("copier", func(t *sim.Task) {
			m := &wire.MemCopy{Token: 1, SrcCid: 2, DstCid: 3}
			for j := 0; j < copies; j++ {
				m.Token = uint64(j)
				if !net.Send(src.ID, dst.ID, m) {
					return
				}
				f := net.RDMARead(src.ID, 0, dst.ID, 0, 4096)
				if _, err := f.Wait(t); err != nil {
					return
				}
			}
		})
		k.Run()
		k.Shutdown()
	}
}

// ---- end-to-end cases ----

// benchFigure8 regenerates the §6.2 composition pipeline (star /
// fast-star / chain) — the workload the ISSUE tracks end to end.
func benchFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure8()
	}
}

// benchFaceVerify regenerates Figure 12, the face-verification
// end-to-end latency experiment.
func benchFaceVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure12()
	}
}
