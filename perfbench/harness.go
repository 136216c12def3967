package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"

	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// workload is one benchmark workload: a fixed number of timed
// requests per round and a constructor for the round's fresh state.
// Inputs are generated once per process, from the seed, before any
// round; every round then simulates the identical deployment and
// requests, which is what makes the virtual metrics exact.
type workload struct {
	requests int
	newRound func() round
}

// warmID tags warm-up request ids apart from the timed ids 1..N.
const warmID = 1 << 40

// round is one deployment's life: build and deploy (spec), warm up,
// then the timed requests.
type round interface {
	spec() testbed.Spec
	// warmup runs inside set-up, after deployment: it touches every
	// lazily built resource (endpoint arenas, slots, replicas) so the
	// timed phase measures steady state.
	warmup(tk *sim.Task, d *testbed.Deployment) error
	// run issues the timed requests.
	run(tk *sim.Task, d *testbed.Deployment, tr *tracer) runOut
	// counters returns the workload's cumulative layer counters; the
	// harness reports their change over the timed phase.
	counters(d *testbed.Deployment) map[string]float64
	// check validates the round's outputs after the timed phase, given
	// the counters' change over it and the number of requests completed.
	check(ctr map[string]float64, completed int) error
}

// runOut is what a round's timed phase produced.
type runOut struct {
	lat    []sim.Time // virtual latency of each completed request
	done   []sim.Time // virtual completion time of each completed request
	failed int        // requests that failed or were refused
	dup    int        // completed requests a stage received more than once
	// until ends the goodput window (0: the last completion). A closed
	// loop sets it to when its first client finished: after that fewer
	// clients drain the rest, and how long the drain takes is the luck
	// of the last few requests, not throughput.
	until  sim.Time
	gauges map[string]float64
	err    error // a wrong output: fails the run
}

// roundResult is one round's measurements. Host durations are process
// CPU time (see cpuTime), except wall.
type roundResult struct {
	traced  bool
	setup   time.Duration // testbed build, deploy, warm-up
	timed   time.Duration // the timed requests
	wall    time.Duration // the timed requests, wall clock
	total   time.Duration // the whole round
	alloc   uint64        // host heap bytes allocated in the timed phase
	numGC   uint32
	heapMax uint64
	events  uint64 // simulation events of the whole round

	lat      []sim.Time // sorted
	failed   int
	dup      int
	velapsed sim.Time // virtual duration of the timed phase
	vgoodput float64  // completions per virtual second in the goodput window
	ctr      map[string]float64
	spans    map[string]*spanStats
	profile  []byte
	digest   string // of the exact (virtual and counted) values
	spanHash string
}

// minRounds per kind keeps at least two rounds to compare for the
// determinism self-check.
const minRounds = 2

// workloads are the benchmark's workloads by name; each constructor
// generates the inputs from the seed.
var workloads = map[string]func(seed int64) *workload{
	"fv-closed":   newFV,
	"route-open":  newRoute,
	"chain-lossy": newChain,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// setupReps extra deployments per untraced run, set up and torn down
// without a timed phase, give setup_s a median over more samples than
// there are rounds. chain-lossy's set-up takes about 7 ms; over seeds
// 101–110 its setup_s spread (interquartile range over median) by 32%
// with the rounds' set-ups alone and by 11% with these.
const setupReps = 20

// maxMeasure caps a run regardless of -seconds, well inside the
// three-minute limit a run must end within.
const maxMeasure = 150 * time.Second

// measure runs rounds until the time budget is spent (alternating
// untraced and traced rounds in a traced run), checks that every
// round simulated the same thing, and derives the metrics.
func measure(w *workload, budget time.Duration, trace bool) (*result, []*roundResult, error) {
	res := &result{Correct: true, Metrics: map[string]*metric{}}
	var rounds []*roundResult
	var setups []float64
	need := minRounds
	if trace {
		need *= 2
	}
	start := time.Now()
	for i := 0; i < setupReps && !trace; i++ {
		runtime.GC()
		d, err := setupOnce(w)
		if err != nil {
			return res, rounds, err
		}
		setups = append(setups, d.Seconds())
	}
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		runtime.GC()
		r, err := runRound(w, traced)
		if err != nil {
			return res, rounds, err
		}
		rounds = append(rounds, r)
		setups = append(setups, r.setup.Seconds())
		res.Attempted += w.requests
		res.Failed += r.failed
		if r.digest != rounds[0].digest {
			return res, rounds, fmt.Errorf("determinism: round %d simulated differently from round 0", i)
		}
		el := time.Since(start)
		if el >= maxMeasure || (el >= budget && i+1 >= need) {
			break
		}
	}
	var traced []*roundResult
	for _, r := range rounds {
		if r.traced {
			if r.spanHash != rounds[1].spanHash {
				return res, rounds, fmt.Errorf("determinism: traced rounds recorded different spans")
			}
			traced = append(traced, r)
		}
	}
	if trace {
		return res, rounds, perLayer(res, w, rounds, traced)
	}
	endToEnd(res, w, rounds, setups)
	return res, rounds, nil
}

// cpuTime returns the process's CPU time (user + system). Host
// durations are measured on it rather than the wall clock: the
// simulator is CPU-bound, and on a shared host the wall clock also
// counts time other tenants took the CPU away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupOnce builds, deploys and warms up one fresh deployment, and
// returns the set-up time.
func setupOnce(w *workload) (d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("set-up failed: %v", p)
		}
	}()
	rd := w.newRound()
	c0 := cpuTime()
	testbed.Run(rd.spec(), func(tk *sim.Task, dep *testbed.Deployment) {
		err = rd.warmup(tk, dep)
		d = cpuTime() - c0
	})
	return d, err
}

// runRound builds a fresh deployment and runs one round in it.
func runRound(w *workload, traced bool) (r *roundResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("round failed: %v", p)
		}
	}()
	rd := w.newRound()
	r = &roundResult{traced: traced}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	stopHeap := sampleHeap(&r.heapMax)
	defer stopHeap()
	ev0 := sim.TotalEvents()
	var out runOut
	var werr error
	var profBuf bytes.Buffer
	t0 := cpuTime()
	testbed.Run(rd.spec(), func(tk *sim.Task, d *testbed.Deployment) {
		if werr = rd.warmup(tk, d); werr != nil {
			return
		}
		r.setup = cpuTime() - t0
		c0 := snapshot(rd, d)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if traced {
			if werr = pprof.StartCPUProfile(&profBuf); werr != nil {
				return
			}
		}
		h0, w0, v0 := cpuTime(), time.Now(), tk.Now()
		out = rd.run(tk, d, tr)
		r.timed, r.wall, r.velapsed = cpuTime()-h0, time.Since(w0), tk.Now()-v0
		until := out.until
		if until == 0 {
			until = tk.Now()
		}
		n := 0
		for _, t := range out.done {
			if t <= until {
				n++
			}
		}
		r.vgoodput = float64(n) / (until - v0).Seconds()
		if traced {
			pprof.StopCPUProfile()
		}
		runtime.ReadMemStats(&m1)
		r.alloc, r.numGC = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
		r.ctr = snapshot(rd, d)
		for k, v := range c0 {
			r.ctr[k] -= v
		}
		for k, v := range out.gauges {
			r.ctr[k] = v
		}
		if out.err == nil {
			out.err = rd.check(r.ctr, len(out.lat))
		}
	})
	r.total = cpuTime() - t0
	r.events = sim.TotalEvents() - ev0
	if werr != nil {
		return nil, werr
	}
	if out.err != nil {
		return nil, out.err
	}
	if len(out.lat)+out.failed != w.requests {
		return nil, fmt.Errorf("round accounted %d of %d requests", len(out.lat)+out.failed, w.requests)
	}
	r.lat, r.failed, r.dup, r.profile = sortedCopy(out.lat), out.failed, out.dup, profBuf.Bytes()
	exact := exactMetrics(w, r)
	r.digest = digestOf(exact)
	if traced {
		r.spans = tr.summarize()
		r.spanHash = digestOf(spanMetrics(r.spans))
	}
	return r, nil
}

// snapshot reads the cumulative counters: the fabric's and every
// Controller's, plus the workload's own.
func snapshot(rd round, d *testbed.Deployment) map[string]float64 {
	c := rd.counters(d)
	st := d.Net().Stats()
	c["fabric.cross_msgs"] = float64(st.CrossNodeMsgs)
	c["fabric.cross_bytes"] = float64(st.CrossNodeBytes)
	c["fabric.rdma_bytes"] = float64(st.RDMABytes)
	for _, ctrl := range d.Cl.Ctrls {
		m := ctrl.Metrics()
		c["core.syscalls"] += float64(m.NullOps + m.MemOps + m.Copies + m.ReqCreates + m.Invokes + m.CapOps)
		c["core.copies"] += float64(m.Copies)
		c["core.cap_ops"] += float64(m.CapOps)
		c["core.cleanups"] += float64(m.CleanupsSent)
		c["core.revocations"] += float64(m.Revocations)
		c["core.backpressured"] += float64(m.Backpressured)
		c["core.retransmits"] += float64(m.Retransmits)
		c["core.dedup_hits"] += float64(m.DedupHits)
	}
	return c
}

// sampleHeap tracks the peak live-object heap in *peak from a host
// goroutine until the returned stop function is called; stop returns
// once the sampler has exited.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// exactMetrics are the values a round's simulation determines exactly:
// the virtual end-to-end metrics, every counter, and the event count.
func exactMetrics(w *workload, r *roundResult) map[string]float64 {
	out := map[string]float64{}
	for k, m := range virtualMetrics(w, r) {
		out[k] = m.Value
	}
	for k, v := range r.ctr {
		out[k] = v
	}
	out["sim.events"] = float64(r.events)
	return out
}

const us = float64(time.Microsecond)

// virtualMetrics are the end-to-end metrics on the virtual clock.
func virtualMetrics(w *workload, r *roundResult) map[string]*metric {
	n := len(r.lat)
	req := float64(w.requests)
	q := func(p float64) *metric {
		return &metric{Value: float64(quantile(r.lat, p)) / us, Unit: "us", clock: "virtual",
			note: fmt.Sprintf("exact, n=%d, beyond=%d", n, beyond(n, p))}
	}
	return map[string]*metric{
		"vlat_p50_us":       q(0.50),
		"vlat_p99_us":       q(0.99),
		"vgoodput_rps":      {Value: r.vgoodput, Unit: "1/s", clock: "virtual"},
		"fabric_kb_per_req": {Value: r.ctr["fabric.cross_bytes"] / req / 1024, Unit: "KiB", clock: "virtual", note: "cross-node bytes"},
		"ok_frac": {Value: float64(n-r.dup) / req, Unit: "frac", clock: "count",
			note: fmt.Sprintf("fail_frac=%g, delivered more than once: %d", float64(r.failed)/req, r.dup)},
	}
}

// endToEnd fills the end-to-end metrics: virtual ones from any round
// (they are identical), host ones as medians over the rounds.
func endToEnd(res *result, w *workload, rounds []*roundResult, setups []float64) {
	for k, m := range virtualMetrics(w, rounds[0]) {
		res.Metrics[k] = m
	}
	req := float64(w.requests)
	host := func(unit string, f func(r *roundResult) float64) *metric {
		xs := hostVals(rounds, f)
		return &metric{Value: median(xs), Unit: unit, clock: "host",
			note: fmt.Sprintf("median of %d rounds, range %.4g..%.4g", len(xs), slices.Min(xs), slices.Max(xs))}
	}
	res.Metrics["host_req_per_s"] = host("1/s", func(r *roundResult) float64 { return req / r.timed.Seconds() })
	res.Metrics["host_req_per_s"].note += fmt.Sprintf("; wall clock: %.4g", median(hostVals(rounds, func(r *roundResult) float64 { return req / r.wall.Seconds() })))
	res.Metrics["setup_s"] = &metric{Value: median(setups), Unit: "s", clock: "host",
		note: fmt.Sprintf("median of %d set-ups, range %.4g..%.4g", len(setups), slices.Min(setups), slices.Max(setups))}
	res.Metrics["alloc_kb_per_req"] = host("KiB", func(r *roundResult) float64 { return float64(r.alloc) / req / 1024 })
	res.Metrics["heap_peak_mb"] = host("MiB", func(r *roundResult) float64 { return float64(r.heapMax) / (1 << 20) })
}

func hostVals(rounds []*roundResult, f func(r *roundResult) float64) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, f(r))
	}
	return xs
}

// procSpans are the proc calls (and the stage's modelled compute) the
// chain workload wraps in spans; the other workloads report them as 0.
var procSpans = []string{"proc.Revtree", "proc.Call", "proc.Revoke", "proc.MemoryDiminish",
	"proc.MemoryCopy", "proc.Invoke", "proc.Drop", "stage.compute"}

// spanMetrics turns span summaries into the per-layer span metrics.
func spanMetrics(sp map[string]*spanStats) map[string]float64 {
	out := map[string]float64{}
	q := func(xs []sim.Time, p float64) float64 { return float64(quantile(sortedCopy(xs), p)) / us }
	get := func(name string) *spanStats {
		if s := sp[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	for _, name := range procSpans {
		s := get(name)
		out[name+".vus_p50"] = q(s.dur, 0.5)
		out[name+".vus_p99"] = q(s.dur, 0.99)
		out[name+".self_vus_p50"] = q(s.self, 0.5)
	}
	for _, name := range []string{"route.Do", "faceverify.VerifyBatch"} {
		s := get(name)
		out[name+".vus_p50"] = q(s.dur, 0.5)
		out[name+".vus_p99"] = q(s.dur, 0.99)
	}
	return out
}

// cpuLayers are the layers a CPU-profile sample can be charged to;
// "other" collects any fractos/internal package not listed.
var cpuLayers = []string{"sim", "wire", "fabric", "cap", "core", "proc", "route", "services",
	"fs", "gpu", "nvme", "faceverify", "load", "stacks", "testbed", "runtime", "bench", "other"}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(res *result, w *workload, rounds, traced []*roundResult) error {
	var plain []*roundResult
	for _, r := range rounds {
		if !r.traced {
			plain = append(plain, r)
		}
	}
	r := traced[0]
	req := float64(w.requests)
	add := func(name, unit, clock string, v float64) {
		res.Metrics[name] = &metric{Value: v, Unit: unit, clock: clock}
	}
	per := func(k string) float64 { return r.ctr[k] / req }
	add("sim.events_per_req", "count", "count", float64(r.events)/req)
	add("fabric.msgs_per_req", "count", "count", per("fabric.cross_msgs"))
	add("fabric.rdma_kb_per_req", "KiB", "virtual", per("fabric.rdma_bytes")/1024)
	for _, k := range []string{"syscalls", "copies", "cap_ops", "cleanups", "backpressured", "retransmits", "dedup_hits"} {
		add("core."+k+"_per_req", "count", "count", per("core."+k))
	}
	add("route.shed_frac", "frac", "count", ratio(r.ctr["route.shed"], r.ctr["route.calls"]))
	add("route.failovers", "count", "count", r.ctr["route.failovers"])
	add("route.resolves", "count", "count", r.ctr["route.resolves"])
	add("route.depth_hwm", "count", "count", r.ctr["route.depth_hwm"])
	add("gpu.launches_per_req", "count", "count", per("gpu.launches"))
	add("gpu.busy_frac", "frac", "virtual", ratio(r.ctr["gpu.busy_ns"], float64(r.velapsed)))
	add("nvme.reads_per_req", "count", "count", per("nvme.reads"))
	add("nvme.ra_hit_frac", "frac", "count", ratio(r.ctr["nvme.ra_hits"], r.ctr["nvme.ra_hits"]+r.ctr["nvme.ra_miss"]))
	add("stage.redeliveries", "count", "count", r.ctr["stage.redelivered"])
	add("load.late_max_us", "us", "virtual", r.ctr["load.late_max_ns"]/us)
	add("load.inflight_hwm", "count", "count", r.ctr["load.inflight_hwm"])
	for k, v := range spanMetrics(r.spans) {
		add(k, "us", "virtual", v)
	}

	// Host-clock layer metrics: medians over the untraced rounds, and
	// the CPU profile of the traced ones.
	var nsPerEv, gcs, plainRPS, tracedRPS []float64
	for _, p := range plain {
		nsPerEv = append(nsPerEv, float64(p.total.Nanoseconds())/float64(p.events))
		gcs = append(gcs, float64(p.numGC)*1000/req)
		plainRPS = append(plainRPS, req/p.timed.Seconds())
	}
	for _, t := range traced {
		tracedRPS = append(tracedRPS, req/t.timed.Seconds())
	}
	add("sim.host_ns_per_event", "ns", "host", median(nsPerEv))
	add("runtime.gc_per_kreq", "count", "host", median(gcs))
	add("bench.trace_overhead_frac", "frac", "host", 1-median(tracedRPS)/median(plainRPS))

	weights := map[string]int64{}
	var total int64
	for _, t := range traced {
		stacks, ws, err := decodeProfile(t.profile)
		if err != nil {
			return err
		}
		for l, v := range attribute(stacks, ws) {
			if !slices.Contains(cpuLayers, l) {
				l = "other"
			}
			weights[l] += v
			total += v
		}
	}
	for _, l := range cpuLayers {
		add(l+".cpu_share", "frac", "host", ratio(float64(weights[l]), float64(total)))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
