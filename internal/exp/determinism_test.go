package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fractos/internal/app/faceverify"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// TestSystemDeterminism runs full-stack experiments twice and requires
// bit-identical metrics: the whole system — kernel, fabric,
// Controllers, services, applications — is a deterministic function of
// its configuration.
func TestSystemDeterminism(t *testing.T) {
	cases := []func() *Table{Table3, Figure2, Figure8, AblationPlacement}
	for _, mk := range cases {
		a := mk()
		b := mk()
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s metrics differ across runs:\n%v\n%v", a.ID, a.Metrics, b.Metrics)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s rows differ across runs", a.ID)
		}
	}
}

// captureTrace runs a workload on a fresh testbed with the fabric
// trace hook installed and returns the rendered event log: one line
// per transfer, in delivery order, covering timestamps, endpoints,
// message types, sizes, and classes. Two runs of the same workload
// must produce byte-identical logs. Services are deployed before the
// trace hook installs, so the log covers the workload only.
func captureTrace(t *testing.T, spec testbed.Spec, run func(tk *sim.Task, d *testbed.Deployment)) string {
	t.Helper()
	var b strings.Builder
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		d.Net().SetTrace(func(e fabric.TraceEvent) {
			fmt.Fprintf(&b, "%d %d>%d type=%d rdma=%v bytes=%d class=%d\n",
				e.At, e.From, e.To, e.Type, e.RDMA, e.Bytes, e.Class)
		})
		run(tk, d)
	})
	if b.Len() == 0 {
		t.Fatal("trace capture saw no fabric transfers")
	}
	return b.String()
}

// diffTraces reports the first line where two event logs diverge.
func diffTraces(t *testing.T, name, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			t.Errorf("%s traces diverge at event %d:\n run A: %s\n run B: %s", name, i, la[i], lb[i])
			return
		}
	}
	t.Errorf("%s traces diverge in length: %d vs %d events", name, len(la), len(lb))
}

// traceFV captures the fabric trace of two face-verification
// requests (batch 8, controllers on the SmartNIC), checking every
// verdict.
func traceFV(t *testing.T) string {
	t.Helper()
	cfg := faceverify.Config{Batch: 8, Files: 2, Slots: 1}
	fv := &stacks.FaceVerify{Cfg: cfg}
	spec := testbed.Spec{Nodes: 4, Placement: core.CtrlOnSNIC,
		Services: []testbed.Service{fv}}
	return captureTrace(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		rng := newRand(5)
		for i := 0; i < cfg.Files; i++ {
			r := faceverify.MakeRequest(fv.DB, i, cfg.Batch, rng)
			out, err := fv.Verify(tk, r)
			if err != nil {
				t.Errorf("faceverify request %d: %v", i, err)
				return
			}
			if !r.CheckResults(out) {
				t.Errorf("faceverify request %d: wrong verdicts", i)
			}
		}
	})
}

// tracePipeline captures the fabric trace of the §6.2 multi-stage
// pipeline run in all three composition models.
func tracePipeline(t *testing.T) string {
	t.Helper()
	return captureTrace(t, testbed.Spec{Nodes: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		pl := newPipeline(tk, d.Cl, 4, 4<<10)
		pl.runStar(tk)
		pl.runFastStar(tk)
		pl.runChain(tk)
	})
}

// TestTraceDeterminism replays two end-to-end workloads — the §6.2
// multi-stage pipeline in all three composition models, and the
// face-verification application — and requires the complete fabric
// event stream (every message and RDMA transfer, with virtual
// timestamps) to be byte-identical across runs.
func TestTraceDeterminism(t *testing.T) {
	diffTraces(t, "pipeline", tracePipeline(t), tracePipeline(t))
	diffTraces(t, "faceverify", traceFV(t), traceFV(t))
}

// TestShardMatrixDeterminism is the GOMAXPROCS matrix for the
// full stack: the faceverify and pipeline fabric traces, the figure8
// and chaos-fv tables, and the event count must not depend on how many
// OS threads the Go scheduler may use. The kernel hands control
// between task goroutines one at a time, so nothing the host
// scheduler decides may leak into the simulation.
func TestShardMatrixDeterminism(t *testing.T) {
	type snapshot struct {
		fvTrace, plTrace string
		figure8, chaos   *Table
		events           uint64
	}
	capture := func() snapshot {
		var s snapshot
		e0 := sim.TotalEvents()
		s.fvTrace = traceFV(t)
		s.plTrace = tracePipeline(t)
		s.figure8 = Figure8()
		s.chaos = ChaosFaceVerify()
		s.events = sim.TotalEvents() - e0
		return s
	}

	base := capture() // ambient GOMAXPROCS
	for _, procs := range []int{1, 4} {
		oldProcs := runtime.GOMAXPROCS(procs)
		got := capture()
		runtime.GOMAXPROCS(oldProcs)

		name := fmt.Sprintf("procs=%d", procs)
		diffTraces(t, name+" faceverify", base.fvTrace, got.fvTrace)
		diffTraces(t, name+" pipeline", base.plTrace, got.plTrace)
		if !reflect.DeepEqual(base.figure8.Rows, got.figure8.Rows) ||
			!reflect.DeepEqual(base.figure8.Metrics, got.figure8.Metrics) {
			t.Errorf("%s: figure8 results differ from the ambient run", name)
		}
		if !reflect.DeepEqual(base.chaos.Rows, got.chaos.Rows) ||
			!reflect.DeepEqual(base.chaos.Metrics, got.chaos.Metrics) {
			t.Errorf("%s: chaos-fv results differ from the ambient run", name)
		}
		if got.events != base.events {
			t.Errorf("%s: processed %d events, the ambient run processed %d",
				name, got.events, base.events)
		}
	}
}
