// Integration tests for the replicated-service layer: admission
// control, member failover, and the routing determinism matrix. They
// live in an external test package because they drive the route stack
// through testbed/stacks (which imports route).
package route_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/route"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

const ms = sim.Time(1000 * 1000)
const us = sim.Time(1000)

// driveConcurrent issues count calls from width concurrent tasks with
// unique non-zero request ids and a service time that is a fixed
// function of the id. Returns the number of failed calls.
func driveConcurrent(tk *sim.Task, s *stacks.Routed, width, count int) int {
	errs := 0
	var wg sim.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		w := w
		tk.Kernel().Spawn(fmt.Sprintf("driver-%d", w), func(t *sim.Task) {
			for i := w; i < count; i += width {
				id := uint64(i + 1)
				service := sim.Time((id*7)%5+1) * 100 * us
				if err := s.Do(t, id, service); err != nil {
					errs++
				}
			}
			wg.Done()
		})
	}
	wg.Wait(tk)
	return errs
}

// TestAdmissionControlSheds: one replica with a tiny queue against a
// concurrent burst. The overflow must be refused with
// wire.StatusBackpressure (retryable — the unified status satellite:
// proc.Retryable classifies a registry/replica shed with no special
// case), the queue must never exceed its bound, and with enough retry
// budget every request eventually lands.
func TestAdmissionControlSheds(t *testing.T) {
	s := &stacks.Routed{Replicas: 1, MaxQueue: 4, Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Services: []testbed.Service{s}},
		func(tk *sim.Task, d *testbed.Deployment) {
			s.B.Retry = proc.Retry{Max: 30, Jitter: 0.2, Seed: 7}
			if errs := driveConcurrent(tk, s, 12, 24); errs != 0 {
				t.Fatalf("%d calls failed despite retry budget", errs)
			}
		})
	rs := s.Instances[0].R.Stats()
	if rs.Shed == 0 {
		t.Error("replica never shed under a 12-wide burst against MaxQueue=4")
	}
	if rs.DepthHWM > 4 {
		t.Errorf("depth high-water mark %d exceeds MaxQueue=4", rs.DepthHWM)
	}
	if rs.Completed != 24 {
		t.Errorf("completed = %d, want 24", rs.Completed)
	}
	bs := s.B.Stats()
	if bs.Shed == 0 {
		t.Error("balancer observed no backpressure sheds")
	}
	// The shed status round-trips the generic classification path.
	if err := wire.StatusBackpressure.Err(); !proc.Retryable(err) {
		t.Error("StatusBackpressure must classify as retryable")
	}
}

// TestBalancerFailsOverOnCrash: two replicas, one loses its Controller
// mid-run. The heartbeat fences the node, the registry prunes the
// member, and the balancer — bounded by AttemptTimeout against
// in-flight requests the corpse admitted — re-resolves and lands every
// remaining call on the survivor.
func TestBalancerFailsOverOnCrash(t *testing.T) {
	s := &stacks.Routed{Replicas: 2, Nodes: []int{1, 2}, MaxQueue: 8, AttemptTimeout: 5 * ms}
	spec := testbed.Spec{
		Nodes:     3,
		Heartbeat: &services.WatchConfig{Every: 1 * ms, Suspect: 2},
		Services:  []testbed.Service{s},
	}
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		s.B.Retry = proc.Retry{Max: 10, Jitter: 0.2, Seed: 5}
		for i := 0; i < 20; i++ {
			if err := s.Do(tk, uint64(i+1), 200*us); err != nil {
				t.Fatalf("pre-crash call %d: %v", i, err)
			}
		}
		d.Cl.CtrlFor(1).Crash()
		for i := 20; i < 40; i++ {
			if err := s.Do(tk, uint64(i+1), 200*us); err != nil {
				t.Fatalf("post-crash call %d: %v", i, err)
			}
		}
		// The fence must have pruned the dead member from the registry.
		tk.Sleep(5 * ms)
		set, err := s.Client.ResolveSet(tk, s.Name)
		if err != nil {
			t.Fatalf("resolve-set: %v", err)
		}
		if len(set.Members) != 1 || set.Members[0].Node != 2 {
			t.Fatalf("post-fence set = %+v, want only the node-2 survivor", set.Members)
		}
	})
	if s.B.Stats().Failovers == 0 {
		t.Error("balancer recorded no failovers across a member crash")
	}
	var survivor *route.Instance
	for _, in := range s.Instances {
		if in.Node == 2 {
			survivor = in
		}
	}
	if got := survivor.R.Stats().Completed; got < 20 {
		t.Errorf("survivor completed %d requests, want >= the 20 post-crash calls", got)
	}
}

// captureRouted runs a routed workload with the fabric trace hook
// installed and returns the rendered event log plus the balancer's
// recorded pick sequence.
func captureRouted(t *testing.T, policy string) (trace, picks string) {
	t.Helper()
	s := &stacks.Routed{Replicas: 4, Policy: policy, MaxQueue: 8}
	spec := testbed.Spec{Nodes: 3, Seed: 11, Services: []testbed.Service{s}}
	var b strings.Builder
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		s.B.Record = true
		d.Net().SetTrace(func(e fabric.TraceEvent) {
			fmt.Fprintf(&b, "%d %d>%d type=%d rdma=%v bytes=%d class=%d\n",
				e.At, e.From, e.To, e.Type, e.RDMA, e.Bytes, e.Class)
		})
		if errs := driveConcurrent(tk, s, 4, 64); errs != 0 {
			t.Fatalf("%d routed calls failed", errs)
		}
	})
	if b.Len() == 0 {
		t.Fatal("trace capture saw no fabric transfers")
	}
	return b.String(), fmt.Sprint(s.B.Picks)
}

// TestRoutingDeterminismMatrix is the routing half of the determinism
// acceptance: for each policy, the member selection sequence and the
// complete fabric event stream must be byte-identical across
// GOMAXPROCS {1, 4}.
func TestRoutingDeterminismMatrix(t *testing.T) {
	for _, policy := range []string{"rr", "least"} {
		baseTrace, basePicks := captureRouted(t, policy)
		if basePicks == "[]" {
			t.Fatalf("%s: no picks recorded", policy)
		}
		for _, procs := range []int{1, 4} {
			oldProcs := runtime.GOMAXPROCS(procs)
			gotTrace, gotPicks := captureRouted(t, policy)
			runtime.GOMAXPROCS(oldProcs)
			name := fmt.Sprintf("%s procs=%d", policy, procs)
			if gotPicks != basePicks {
				t.Errorf("%s: pick sequence differs\n base: %s\n got:  %s", name, basePicks, gotPicks)
			}
			if gotTrace != baseTrace {
				la, lb := strings.Split(baseTrace, "\n"), strings.Split(gotTrace, "\n")
				n := len(la)
				if len(lb) < n {
					n = len(lb)
				}
				for i := 0; i < n; i++ {
					if la[i] != lb[i] {
						t.Errorf("%s: traces diverge at event %d:\n base: %s\n got:  %s", name, i, la[i], lb[i])
						break
					}
				}
				if len(la) != len(lb) {
					t.Errorf("%s: traces diverge in length: %d vs %d events", name, len(la), len(lb))
				}
			}
		}
	}
}
