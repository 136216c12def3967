package main

import (
	"fmt"
	"slices"

	"fractos/internal/app/faceverify"
	"fractos/internal/load"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// fv-closed: the paper's end-to-end face-verification app (§6.5,
// Figures 12/13) on the FractOS stack, driven closed-loop by eight
// clients, each thinking for a seeded exponential time with mean
// fvThink between requests.
//
// fvThink puts the loop at its knee, the population N* = (D + Z) / Dgpu
// at which a closed system's asymptotic throughput and latency bounds
// cross (Lazowska et al., Quantitative System Performance, 1984, ch. 5).
// On this stack one request alone takes D = 727.6 µs and holds the GPU
// for Dgpu = 266 µs, so N* = 8 gives Z = 8 × 266 − 727.6 ≈ 1.4 ms. There
// the GPU is about 81% busy and a request's latency includes its data
// path. With no think time all eight requests queue at the GPU and
// every latency is exactly 8 × 266 µs on every seed: doubling the NVMe
// random-read latency (65 → 130 µs) leaves p50 and p99 at 2128 µs, where
// at the knee it raises them by 2.6% and 4.9%.
const (
	fvClients  = 8
	fvBatch    = 64
	fvFiles    = 8
	fvPool     = 32                    // distinct requests, drawn from per call
	fvRequests = 9600                  // timed requests per round
	fvThink    = 1400 * sim.Time(1000) // mean think time, 1.4 ms virtual
)

type fvInputs struct {
	cfg   faceverify.Config
	pool  []*faceverify.Request
	pick  [][]int      // per client, per request: pool index
	think [][]sim.Time // per client, per request: think time before it
}

func newFV(seed int64) *workload {
	rng := testbed.Rand(seed)
	in := &fvInputs{cfg: faceverify.Config{Batch: fvBatch, Files: fvFiles, Slots: fvClients, Seed: seed&0x7fffffff + 1}}
	// The app seeds its database from cfg.Seed, so building the same DB
	// here yields requests whose ground truth matches the deployed data.
	db := faceverify.NewDB(fvFiles*fvBatch, in.cfg.Seed)
	for i := 0; i < fvPool; i++ {
		in.pool = append(in.pool, faceverify.MakeRequest(db, i%fvFiles, fvBatch, rng))
	}
	per := fvRequests / fvClients
	for c := 0; c < fvClients; c++ {
		picks, thinks := make([]int, per), make([]sim.Time, per)
		for i := range picks {
			picks[i] = rng.Intn(fvPool)
			thinks[i] = sim.Time(rng.ExpFloat64() * float64(fvThink))
		}
		in.pick = append(in.pick, picks)
		in.think = append(in.think, thinks)
	}
	return &workload{requests: per * fvClients, newRound: func() round {
		return &fvRound{in: in, fv: &stacks.FaceVerify{Cfg: in.cfg}}
	}}
}

type fvRound struct {
	in *fvInputs
	fv *stacks.FaceVerify
}

func (r *fvRound) spec() testbed.Spec {
	return testbed.Spec{Nodes: 4, Seed: r.in.cfg.Seed, Services: []testbed.Service{r.fv}}
}

// verify runs one request; a failed request returns its error, and a
// completed one with a wrong verdict sets *wrong.
func (r *fvRound) verify(t *sim.Task, req *faceverify.Request, wrong *error) error {
	out, err := r.fv.Verify(t, req)
	if err == nil && !req.CheckResults(out) && *wrong == nil {
		*wrong = fmt.Errorf("fv-closed: wrong verification verdicts for file %d", req.FileIdx)
	}
	return err
}

func (r *fvRound) warmup(tk *sim.Task, d *testbed.Deployment) error {
	var wrong error
	st := load.Closed{Clients: fvClients, PerClient: 2}.Run(tk, func(t *sim.Task, c, i int) error {
		return r.verify(t, r.in.pool[(2*c+i)%fvPool], &wrong)
	})
	if st.Errors > 0 {
		return fmt.Errorf("fv-closed: %d warm-up requests failed", st.Errors)
	}
	return wrong
}

func (r *fvRound) run(tk *sim.Task, d *testbed.Deployment, tr *tracer) runOut {
	var out runOut
	per := len(r.in.pick[0])
	last := make([]sim.Time, fvClients)
	load.Closed{Clients: fvClients, PerClient: per}.Run(tk, func(t *sim.Task, c, i int) error {
		t.Sleep(r.in.think[c][i])
		req := r.in.pool[r.in.pick[c][i]]
		t0 := t.Now()
		err := r.verify(t, req, &out.err)
		tr.add("faceverify.VerifyBatch", uint64(c*per+i+1), true, t0, t.Now())
		if err != nil {
			out.failed++
			return err
		}
		out.lat, out.done = append(out.lat, t.Now()-t0), append(out.done, t.Now())
		last[c] = t.Now()
		return nil
	})
	out.until = slices.Min(last) // the first client to finish
	return out
}

func (r *fvRound) counters(d *testbed.Deployment) map[string]float64 {
	g, n := r.fv.App.GPUDev, r.fv.App.NVMeDev
	return map[string]float64{
		"gpu.launches": float64(g.Launches),
		"gpu.busy_ns":  float64(g.BusyTime),
		"nvme.reads":   float64(n.Reads),
		"nvme.ra_hits": float64(n.RAHits),
		"nvme.ra_miss": float64(n.RAMiss),
	}
}

// check has nothing left to do: every verdict was checked as it came
// back.
func (r *fvRound) check(map[string]float64, int) error { return nil }
