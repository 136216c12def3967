package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// chain-lossy: the §6.2 chain — three stages on nodes 1–3, the client
// on node 0 — over a fabric that drops 0.25% of cross-node frames,
// which arms the Controllers' retransmission and dedup machinery. At
// that rate about 3% of requests meet a lost frame and wait out the
// 5 ms retransmission timeout, so p99 measures the lossy path on every
// seed (at 0.1% the share sits near 1% and p99 flips between the two
// modes from seed to seed). Per
// request the client uploads its 4 KiB buffer to stage 0, makes a
// revocable child of its own buffer (Revtree), Calls stage 0 with the
// whole continuation chain as arguments, and Revokes the child once
// the reply is back. Each stage transforms its input, then
// MemoryDiminish → MemoryCopy to the next hop → Invoke the next
// Request → Drop; the last stage copies into the client's revocable
// child and replies with a checksum. Small copies, many syscalls, revocation
// cleanup broadcasts and retransmissions: the layers the other two
// workloads leave alone.
const (
	chainStages    = 3
	chainClients   = 8
	chainBuf       = 4 << 10
	chainPool      = 64   // distinct input buffers, drawn from per request
	chainRequests  = 7200 // timed requests per round
	chainDrop      = 0.0025
	chainStageTime = 5 * sim.Time(1000) // modelled per-stage compute
	chainTag       = uint64(0x60)
)

// Chain immediates: request id, client slot, byte count, and (in the
// reply) the checksum of the final buffer.
const (
	immID, immSlot, immLen, immSum = 0, 8, 16, 24
)

type chainInputs struct {
	seed int64
	pool [][]byte // input buffers
	want [][]byte // each input after all stages
	sum  []uint64 // checksum of want
	pick [][]int  // per client, per request: pool index
}

// transform is stage k's compute: an invertible byte map, so a stage
// skipped, repeated or reordered changes the output.
func transform(b []byte, k int) {
	for i := range b {
		b[i] = b[i]*3 + byte(k+1)
	}
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func newChain(seed int64) *workload {
	rng := testbed.Rand(seed)
	in := &chainInputs{seed: seed}
	for i := 0; i < chainPool; i++ {
		b := make([]byte, chainBuf)
		rng.Read(b)
		w := append([]byte(nil), b...)
		for k := 0; k < chainStages; k++ {
			transform(w, k)
		}
		in.pool, in.want, in.sum = append(in.pool, b), append(in.want, w), append(in.sum, checksum(w))
	}
	per := chainRequests / chainClients
	for c := 0; c < chainClients; c++ {
		picks := make([]int, per)
		for i := range picks {
			picks[i] = rng.Intn(chainPool)
		}
		in.pick = append(in.pick, picks)
	}
	return &workload{requests: per * chainClients, newRound: func() round {
		return &chainRound{in: in, dupIDs: map[uint64]bool{}}
	}}
}

type chainStage struct {
	k    int
	p    *proc.Process
	in   []proc.Cap // input buffer per client slot
	req  proc.Cap   // the stage's chain Request
	seen map[uint64]bool
}

type chainRound struct {
	in *chainInputs

	client  *proc.Process
	cbuf    []proc.Cap   // per slot: the client's buffer
	stageIn [][]proc.Cap // [stage][slot]: client-held stage input buffers
	entry   []proc.Cap   // per stage: client-held chain Request
	stages  []*chainStage

	tr          *tracer // set for the timed phase; stage workers record into it
	stageErr    error
	redelivered int             // stage deliveries of a request the stage had already run
	dupIDs      map[uint64]bool // timed requests some stage received more than once
}

func (r *chainRound) spec() testbed.Spec {
	return testbed.Spec{Nodes: chainStages + 1, Seed: r.in.seed,
		Chaos:    fabric.Faults{Drop: chainDrop, Seed: r.in.seed},
		Services: []testbed.Service{r}}
}

// Deploy implements testbed.Service: the client, the stages with one
// worker per client slot, and the capabilities the client holds.
func (r *chainRound) Deploy(tk *sim.Task, d *testbed.Deployment) {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("chain-lossy: deploy: %v", err))
		}
	}
	r.client = d.Attach(0, "chain-client", chainClients*chainBuf)
	for c := 0; c < chainClients; c++ {
		m, err := r.client.MemoryCreate(tk, uint64(c*chainBuf), chainBuf, cap.MemRights)
		must(err)
		r.cbuf = append(r.cbuf, m)
	}
	for k := 0; k < chainStages; k++ {
		st := &chainStage{k: k, p: d.Attach(k+1, fmt.Sprintf("chain-stage%d", k), chainClients*chainBuf),
			seen: map[uint64]bool{}}
		var grants []proc.Cap
		for c := 0; c < chainClients; c++ {
			m, err := st.p.MemoryCreate(tk, uint64(c*chainBuf), chainBuf, cap.MemRights)
			must(err)
			st.in = append(st.in, m)
			g, err := proc.GrantCap(st.p, m, r.client)
			must(err)
			grants = append(grants, g)
		}
		var err error
		st.req, err = st.p.RequestCreate(tk, chainTag, nil, nil)
		must(err)
		g, err := proc.GrantCap(st.p, st.req, r.client)
		must(err)
		r.stages, r.stageIn, r.entry = append(r.stages, st), append(r.stageIn, grants), append(r.entry, g)
		for c := 0; c < chainClients; c++ {
			d.Spawn(fmt.Sprintf("chain-stage%d-w%d", k, c), func(t *sim.Task) { r.serve(t, st) })
		}
	}
}

// serve is one stage worker. A stage's delivery carries, in slots 0
// and 1, where its output goes and whom to invoke next; slots 2 and up
// are the rest of the chain, which it forwards shifted down by two.
func (r *chainRound) serve(t *sim.Task, st *chainStage) {
	p := st.p
	for {
		dv, ok := p.Receive(t)
		if !ok {
			return
		}
		id, c, n := dv.U64(immID), dv.U64(immSlot), dv.U64(immLen)
		dst, ok1 := dv.Cap(0)
		next, ok2 := dv.Cap(1)
		if c >= chainClients || n > chainBuf || !ok1 || !ok2 {
			r.fail(fmt.Errorf("chain-lossy: stage %d: malformed delivery", st.k))
			dv.Done()
			continue
		}
		if st.seen[id] {
			// The lossy fabric can deliver one invocation twice, which
			// breaks the Controller's at-most-once promise. The stage
			// runs each request id once, like route.Replica, and the
			// request no longer counts towards ok_frac.
			r.redelivered++
			if id < warmID {
				r.dupIDs[id] = true
			}
			if err := r.dropAll(t, st, id, dv); err != nil {
				r.fail(fmt.Errorf("chain-lossy: stage %d: %w", st.k, err))
			}
			dv.Done()
			continue
		}
		st.seen[id] = true
		tr := r.tr
		t0 := t.Now()
		t.Sleep(chainStageTime)
		slot := int(c)
		buf := p.Arena()[slot*chainBuf : slot*chainBuf+int(n)]
		transform(buf, st.k)
		imms := []wire.ImmArg{proc.U64Arg(immID, id), proc.U64Arg(immSlot, uint64(slot)), proc.U64Arg(immLen, n)}
		if st.k == chainStages-1 {
			imms = append(imms, proc.U64Arg(immSum, checksum(buf)))
		}
		t1 := t.Now()
		tr.add("stage.compute", id, false, t0, t1)
		view, err := p.MemoryDiminish(t, st.in[slot], 0, n, 0)
		t2 := t.Now()
		tr.add("proc.MemoryDiminish", id, false, t1, t2)
		if err == nil {
			if err = p.MemoryCopy(t, view, dst); err != nil {
				err = fmt.Errorf("copy: %w", err)
			}
			tr.add("proc.MemoryCopy", id, false, t2, t.Now())
		}
		if err == nil {
			var args []proc.Arg
			for _, dc := range dv.Caps {
				if dc.Slot >= 2 {
					args = append(args, proc.Arg{Slot: dc.Slot - 2, Cap: p.CapFromDelivered(dc)})
				}
			}
			t3 := t.Now()
			if err = p.Invoke(t, next, imms, args); err != nil {
				err = fmt.Errorf("invoke: %w", err)
			}
			tr.add("proc.Invoke", id, false, t3, t.Now())
		}
		// Off the critical path: drop the view and every delivered
		// capability, so the stages' capability spaces stay flat. The
		// client's revocable child may already be purged by its Revoke.
		if view.Valid() {
			err = errors.Join(err, r.drop(t, p, id, view))
		}
		err = errors.Join(err, r.dropAll(t, st, id, dv))
		if err != nil {
			r.fail(fmt.Errorf("chain-lossy: stage %d: %w", st.k, err))
		}
		dv.Done()
	}
}

// revSlot is the slot in which stage k receives the client's
// revocable child: the chain's last capability before the reply.
func revSlot(k int) uint16 { return uint16(2 * (chainStages - 1 - k)) }

// dropAll drops every capability a delivery installed.
func (r *chainRound) dropAll(t *sim.Task, st *chainStage, id uint64, dv *proc.Delivery) error {
	var err error
	for _, c := range dv.Caps {
		derr := r.drop(t, st.p, id, st.p.CapFromDelivered(c))
		if c.Slot == revSlot(st.k) && wire.IsStatus(derr, wire.StatusNoCap) {
			derr = nil
		}
		err = errors.Join(err, derr)
	}
	return err
}

func (r *chainRound) drop(t *sim.Task, p *proc.Process, id uint64, c proc.Cap) error {
	t0 := t.Now()
	err := p.Drop(t, c)
	r.tr.add("proc.Drop", id, false, t0, t.Now())
	if err != nil {
		return fmt.Errorf("drop: %w", err)
	}
	return nil
}

func (r *chainRound) fail(err error) {
	if r.stageErr == nil {
		r.stageErr = err
	}
}

// request runs one chain request from client slot c on pool input j,
// returning an error if the call failed and setting *wrong if it
// completed with a wrong result.
func (r *chainRound) request(t *sim.Task, c, j int, id uint64, wrong *error) error {
	cl, tr := r.client, r.tr
	arena := cl.Arena()[c*chainBuf : (c+1)*chainBuf]
	copy(arena, r.in.pool[j])
	t0 := t.Now()
	if err := cl.MemoryCopy(t, r.cbuf[c], r.stageIn[0][c]); err != nil {
		return err
	}
	t1 := t.Now()
	tr.add("proc.MemoryCopy", id, false, t0, t1)
	rev, err := cl.Revtree(t, r.cbuf[c])
	if err != nil {
		return err
	}
	t2 := t.Now()
	tr.add("proc.Revtree", id, false, t1, t2)
	// Stage k's output goes to stage k+1's input; the last stage's to
	// the client's revocable child; the reply Request fills the last
	// slot (Call adds it).
	args := []proc.Arg{
		{Slot: 0, Cap: r.stageIn[1][c]}, {Slot: 1, Cap: r.entry[1]},
		{Slot: 2, Cap: r.stageIn[2][c]}, {Slot: 3, Cap: r.entry[2]},
		{Slot: 4, Cap: rev},
	}
	imms := []wire.ImmArg{proc.U64Arg(immID, id), proc.U64Arg(immSlot, uint64(c)), proc.U64Arg(immLen, chainBuf)}
	dv, err := cl.Call(t, r.entry[0], imms, args, 5)
	t3 := t.Now()
	tr.add("proc.Call", id, true, t2, t3)
	if err != nil {
		return err
	}
	if err := cl.Revoke(t, rev); err != nil {
		return err
	}
	tr.add("proc.Revoke", id, false, t3, t.Now())
	if *wrong == nil && (dv.U64(immID) != id || dv.U64(immSum) != r.in.sum[j] || !bytes.Equal(arena, r.in.want[j])) {
		*wrong = fmt.Errorf("chain-lossy: request %d came back wrong", id)
	}
	return nil
}

func (r *chainRound) warmup(tk *sim.Task, d *testbed.Deployment) error {
	var wrong error
	st := load.Closed{Clients: chainClients, PerClient: 2}.Run(tk, func(t *sim.Task, c, i int) error {
		return r.request(t, c, (2*c+i)%chainPool, warmID+uint64(2*c+i), &wrong)
	})
	if st.Errors > 0 {
		return fmt.Errorf("chain-lossy: %d warm-up requests failed", st.Errors)
	}
	return wrong
}

func (r *chainRound) run(tk *sim.Task, d *testbed.Deployment, tr *tracer) runOut {
	var out runOut
	r.tr = tr
	per := len(r.in.pick[0])
	last := make([]sim.Time, chainClients)
	load.Closed{Clients: chainClients, PerClient: per}.Run(tk, func(t *sim.Task, c, i int) error {
		t0 := t.Now()
		if err := r.request(t, c, r.in.pick[c][i], uint64(c*per+i+1), &out.err); err != nil {
			out.failed++
			return err
		}
		out.lat, out.done = append(out.lat, t.Now()-t0), append(out.done, t.Now())
		last[c] = t.Now()
		return nil
	})
	out.until = slices.Min(last) // the first client to finish
	out.dup = len(r.dupIDs)
	r.tr = nil
	return out
}

func (r *chainRound) counters(d *testbed.Deployment) map[string]float64 {
	return map[string]float64{"stage.redelivered": float64(r.redelivered)}
}

// check fails the round on a stage error, and unless every completed
// request's revocation — and nothing else — was counted by the
// Controllers.
func (r *chainRound) check(ctr map[string]float64, completed int) error {
	if r.stageErr != nil {
		return r.stageErr
	}
	if rv := ctr["core.revocations"]; rv != float64(completed) {
		return fmt.Errorf("chain-lossy: %v revocations for %d completed requests", rv, completed)
	}
	return nil
}
