package main

import (
	"fmt"

	"fractos/internal/load"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// route-open: a 16-replica routed service behind the registry and a
// least-loaded balancer, taking Poisson arrivals open-loop — the
// arrivals stand for independent users, so a slow system does not
// slow them down. One attempt per arrival: a shed request is a
// refusal, not deferred load. Small RPCs carry no data, so the control
// path (services, route, proc, core, wire, sim) does all the work.
const (
	routeReplicas = 16
	routeSvcMean  = 400.0   // µs; one replica saturates near 2 500 req/s
	routeRate     = 25000.0 // req/s virtual: 10× one replica, ~62% of sixteen
	routeRequests = 27000   // timed arrivals per round
	routeWarmup   = 2 * routeReplicas
)

type routeInputs struct {
	seed     int64
	arrivals []sim.Time // offsets from the timed phase's start
	svc      []sim.Time // per request: its service time
	open     load.Open
}

func newRoute(seed int64) *workload {
	rng := testbed.Rand(seed)
	in := &routeInputs{seed: seed}
	in.open = load.Open{Rate: routeRate, Requests: routeRequests, Seed: rng.Int63()}
	in.arrivals = in.open.Arrivals()
	for i := 0; i < routeRequests; i++ {
		in.svc = append(in.svc, testbed.USec(rng.ExpFloat64()*routeSvcMean))
	}
	return &workload{requests: routeRequests, newRound: func() round {
		return &routeRound{in: in, s: &stacks.Routed{Replicas: routeReplicas, Policy: "least", Nodes: []int{1, 2, 3}}}
	}}
}

type routeRound struct {
	in *routeInputs
	s  *stacks.Routed
	ok []bool // by request index: the call succeeded
}

func (r *routeRound) spec() testbed.Spec {
	return testbed.Spec{Nodes: 4, Seed: r.in.seed, Services: []testbed.Service{r.s}}
}

func (r *routeRound) warmup(tk *sim.Task, d *testbed.Deployment) error {
	r.s.B.Retry.Max = 1
	// Sixteen concurrent callers spread over every replica (least
	// loaded counts in-flight calls), so each replica's endpoints exist
	// before timing starts.
	st := load.Closed{Clients: routeReplicas, PerClient: routeWarmup / routeReplicas}.Run(tk,
		func(t *sim.Task, c, i int) error {
			return r.s.Do(t, warmID+uint64(c*routeWarmup/routeReplicas+i), testbed.USec(routeSvcMean))
		})
	if st.Errors > 0 {
		return fmt.Errorf("route-open: %d warm-up requests failed", st.Errors)
	}
	return nil
}

func (r *routeRound) run(tk *sim.Task, d *testbed.Deployment, tr *tracer) runOut {
	out := runOut{gauges: map[string]float64{}}
	r.ok = make([]bool, routeRequests)
	base := tk.Now() // Open.Run's start: arrival i is due at base+arrivals[i]
	var late sim.Time
	st := r.in.open.Run(tk, func(t *sim.Task, i int) error {
		due := base + r.in.arrivals[i]
		late = max(late, t.Now()-due)
		t0 := t.Now()
		err := r.s.Do(t, uint64(i+1), r.in.svc[i])
		tr.add("route.Do", uint64(i+1), true, t0, t.Now())
		if err != nil {
			out.failed++
			return err
		}
		r.ok[i] = true
		out.lat, out.done = append(out.lat, t.Now()-due), append(out.done, t.Now())
		return nil
	})
	depth := 0
	for _, in := range r.s.AllInstances {
		depth = max(depth, in.R.Stats().DepthHWM)
	}
	out.gauges["load.late_max_ns"] = float64(late)
	out.gauges["load.inflight_hwm"] = float64(st.InflightHWM)
	out.gauges["route.depth_hwm"] = float64(depth)
	return out
}

func (r *routeRound) counters(d *testbed.Deployment) map[string]float64 {
	b := r.s.B.Stats()
	return map[string]float64{
		"route.calls":     float64(b.Calls),
		"route.shed":      float64(b.Shed),
		"route.failovers": float64(b.Failovers),
		"route.resolves":  float64(b.Resolves),
	}
}

// check is the exactly-once oracle: every timed request that
// succeeded was served by exactly one replica, none was served twice,
// and no replica served an id that was never sent. (The stacks.Routed
// handler replies with status and depth only, so the served logs are
// where request ids can be checked.)
func (r *routeRound) check(map[string]float64, int) error {
	seen := make(map[uint64]int, routeRequests)
	for _, in := range r.s.AllInstances {
		for _, id := range in.R.Served() {
			if id >= warmID {
				continue
			}
			if id < 1 || id > routeRequests {
				return fmt.Errorf("route-open: replica served unknown id %d", id)
			}
			seen[id]++
		}
	}
	for i, ok := range r.ok {
		id := uint64(i + 1)
		if n := seen[id]; n > 1 || (ok && n != 1) {
			return fmt.Errorf("route-open: id %d served %d times", id, n)
		}
	}
	return nil
}
