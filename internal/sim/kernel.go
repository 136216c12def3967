// Package sim implements a deterministic discrete-event simulation
// kernel. All FractOS entities (Controllers, Processes, devices, NICs)
// run as cooperatively scheduled actors ("tasks") under a virtual
// clock. Exactly one task executes at any moment; each task is a
// runtime coroutine that the kernel resumes and that yields back when
// it blocks, so task code can be written in a natural blocking style
// while the simulation stays deterministic and race-free.
//
// Two runs of the same program over the same kernel produce identical
// event orders and identical virtual timestamps.
//
// Hot-path design (see docs/PERFORMANCE.md): events are slab-allocated
// pooled structs ordered by a concrete 4-ary index heap; events
// scheduled for the current instant bypass the heap through a FIFO run
// queue; tasks are pooled iter.Pull coroutines (taskpool.go).
//
// Who runs the event loop: Run's caller (the driver), alone. It pops
// every event in global (timestamp, sequence) order, runs kernel-context
// closures itself, and resumes a task by switching straight to the
// task's coroutine; the task's next park switches straight back. A
// coroutine switch hands the thread from one goroutine to the other
// without going through the scheduler's run queue, so a wake wakes no
// idle P and sleeps on no futex.
package sim

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

// totalEvents counts every event processed by any kernel in the
// process, for wall-clock events/sec reporting (internal/perf,
// bench_test.go). It is flushed in batches at the end of each run
// loop so the hot path pays only a register increment; simulation
// behavior never reads it, so determinism is unaffected.
var totalEvents atomic.Uint64

// TotalEvents returns the process-wide count of simulation events
// processed so far. Subtract two readings around a workload to get
// its event count.
func TotalEvents() uint64 { return totalEvents.Load() }

// Time is a virtual timestamp, measured in nanoseconds since the start
// of the simulation. It deliberately mirrors time.Duration so that
// durations and timestamps compose with ordinary arithmetic.
type Time = time.Duration

// maxTime is a sentinel beyond every schedulable timestamp.
const maxTime = Time(math.MaxInt64)

// event is a scheduled occurrence: either waking a parked task or
// running a closure in kernel context. Events are pooled by the
// kernel; user code never sees them.
type event struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among events at the same instant
	task *Task  // non-nil: wake this task
	fn   func() // non-nil: run in kernel context (must not block)
	pos  int32  // heap index; posRunq while in the run queue, posFree otherwise
}

const (
	posFree int32 = -1 // not queued (free list or in flight)
	posRunq int32 = -2 // in the same-instant run queue
)

// eventHeap is a concrete 4-ary min-heap of events ordered by
// (at, seq). Compared to container/heap it avoids interface boxing,
// halves the tree depth, and tracks element positions so stale wakes
// can be removed in place.
type eventHeap struct {
	es []*event
}

//fractos:hotpath
func (h *eventHeap) len() int { return len(h.es) }

//fractos:hotpath
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//fractos:hotpath
//fractos:pool-handoff simevent
func (h *eventHeap) push(e *event) {
	h.es = append(h.es, e) // fractos:alloc-ok heap backing growth is amortized
	h.up(len(h.es) - 1)
}

// pop removes and returns the minimum event.
//
//fractos:hotpath
func (h *eventHeap) pop() *event {
	e := h.es[0]
	n := len(h.es) - 1
	last := h.es[n]
	h.es[n] = nil
	h.es = h.es[:n]
	if n > 0 {
		h.es[0] = last
		last.pos = 0
		h.down(0)
	}
	e.pos = posFree
	return e
}

// remove deletes an arbitrary event from the heap by its tracked
// position (stale-wake cancellation).
//
//fractos:hotpath
func (h *eventHeap) remove(e *event) {
	i := int(e.pos)
	n := len(h.es) - 1
	last := h.es[n]
	h.es[n] = nil
	h.es = h.es[:n]
	if i < n {
		h.es[i] = last
		last.pos = int32(i)
		h.down(i)
		h.up(int(last.pos))
	}
	e.pos = posFree
}

//fractos:hotpath
func (h *eventHeap) up(i int) {
	es := h.es
	e := es[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(e, es[p]) {
			break
		}
		es[i] = es[p]
		es[i].pos = int32(i)
		i = p
	}
	es[i] = e
	e.pos = int32(i)
}

//fractos:hotpath
func (h *eventHeap) down(i int) {
	es := h.es
	n := len(es)
	e := es[i]
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(es[j], es[m]) {
				m = j
			}
		}
		if !evLess(es[m], e) {
			break
		}
		es[i] = es[m]
		es[i].pos = int32(i)
		i = m
	}
	es[i] = e
	e.pos = int32(i)
}

// eventRing is the same-instant FIFO run queue: a power-of-two ring
// buffer of events whose timestamp equals the current virtual time.
// Pushing and popping are O(1) with no ordering work at all.
type eventRing struct {
	buf  []*event
	head int
	n    int
}

//fractos:hotpath
//fractos:pool-handoff simevent
func (r *eventRing) push(e *event) {
	if r.n == len(r.buf) {
		r.grow() // fractos:alloc-ok ring doubling is amortized; steady state never grows
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *eventRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*event, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

//fractos:hotpath
func (r *eventRing) front() *event { return r.buf[r.head] }

//fractos:hotpath
func (r *eventRing) popFront() *event {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	e.pos = posFree
	return e
}

// killSignal unwinds a task body during Kernel.Shutdown.
type killSignal struct{}

// Kernel is a discrete-event scheduler. Create one with New, populate
// it with Spawn, and drive it with Run or RunUntil.
//
// A Kernel is not safe for concurrent use from multiple OS threads;
// all interaction must happen either from the goroutine that calls
// Run, or from within task functions (which are serialized by the
// kernel itself).
type Kernel struct {
	now      Time
	seq      uint64
	heap     eventHeap
	runq     eventRing
	free     []*event // pooled event structs
	slab     []event  // slab the free list refills from, carved one struct at a time
	tasks    map[uint64]*Task
	nextID   uint64
	seed     int64
	rng      *rand.Rand // lazily built from seed on first Rand()
	stopped  bool
	deadline Time // the running loop's bound: events past it stay queued

	// processed accumulates popped events; flushed into the
	// process-wide totalEvents counter when a run loop exits.
	processed uint64
}

// New returns an empty kernel with its virtual clock at zero. The seed
// feeds the kernel's deterministic random source (Rand).
func New(seed int64) *Kernel {
	return &Kernel{
		tasks: make(map[uint64]*Task),
		seed:  seed,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source, built lazily
// from the seed (rand.Source construction is a measurable cost for
// short-lived kernels that never draw randomness). It must only be
// used from this kernel's task or kernel context, and never retained
// by state that outlives the kernel or is shared with another one.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// Task is the handle a spawned function uses to interact with the
// kernel: sleeping, reading the clock, and (via Chan and Future)
// blocking on communication. A Task handle is only valid inside the
// task function it was passed to.
type Task struct {
	k    *Kernel
	id   uint64
	name string
	fn   func(t *Task)
	// resume switches from the driver into the task's coroutine and
	// returns when the task parks or finishes; yield, called on the
	// coroutine, switches back and reports false once stop has ended
	// the coroutine. See taskpool.go.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	wake   *event // pending wake event, nil if none queued
	done   bool
	killed bool
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// ID returns the task's unique id, assigned in spawn order.
func (t *Task) ID() uint64 { return t.id }

// Kernel returns the kernel this task runs under.
func (t *Task) Kernel() *Kernel { return t.k }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.k.now }

// Spawn creates a new task executing fn and schedules it to start at
// the current virtual time. It may be called from kernel context
// (before Run, or inside an After closure) or from task context.
// Task structs and their coroutines come from a pooled free list
// (taskpool.go), so steady-state Spawn allocates nothing.
//
//fractos:hotpath
func (k *Kernel) Spawn(name string, fn func(t *Task)) *Task {
	k.nextID++
	t := getTask()
	t.k, t.id, t.name, t.fn = k, k.nextID, name, fn
	t.done, t.killed = false, false
	k.tasks[t.id] = t // fractos:pool-ok fractos:alloc-ok task table and pool share ownership; exec unlinks before the driver repools
	t.wake = k.schedule(k.now, t, nil)
	return t
}

// alloc takes an event struct from the pool. Refills carve a slab of
// events in one allocation rather than allocating structs one by one.
//
//fractos:hotpath
//fractos:pool-acquire simevent
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	if len(k.slab) == 0 {
		k.slab = make([]event, 64) // fractos:alloc-ok slab refill: one allocation per 64 events
	}
	e := &k.slab[0]
	k.slab = k.slab[1:]
	e.pos = posFree
	return e
}

// release resets an event and returns it to the pool.
//
//fractos:hotpath
//fractos:pool-release simevent
func (k *Kernel) release(e *event) {
	e.task = nil
	e.fn = nil
	e.pos = posFree
	k.free = append(k.free, e) // fractos:alloc-ok free-list growth is amortized
}

// schedule queues an occurrence at time at. Same-instant events take
// the FIFO run-queue fast path; future events go through the heap.
//
//fractos:hotpath
func (k *Kernel) schedule(at Time, t *Task, fn func()) *event {
	e := k.alloc()
	k.seq++
	e.at, e.seq, e.task, e.fn = at, k.seq, t, fn
	if at == k.now {
		e.pos = posRunq
		k.runq.push(e)
	} else {
		k.heap.push(e)
	}
	return e // fractos:pool-ok the queue owns e after push; the returned handle exists only so cancel can find it
}

// cancel drops a queued event: removed in place from the heap, or
// tombstoned in the run queue (reclaimed on pop).
//
//fractos:hotpath
func (k *Kernel) cancel(e *event) {
	if e.pos >= 0 {
		k.heap.remove(e)
		k.release(e)
		return
	}
	if e.pos == posRunq {
		e.task = nil
		e.fn = nil
	}
}

// After schedules fn to run in kernel context at now+d: on the
// goroutine running the event loop (Run's caller), never alongside a
// task. fn must not block; to perform blocking work, have fn call
// Spawn.
//
//fractos:hotpath
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, nil, fn)
}

// park blocks the calling task until the kernel wakes it: it yields
// the task's coroutine, switching straight back to the driver, and
// returns when the driver resumes it. Must be called from the running
// task.
//
//fractos:hotpath
func (t *Task) park() {
	if !t.yield(struct{}{}) || t.killed {
		//fractos:panic-ok cooperative kill: caught by Task.exec's recover
		panic(killSignal{})
	}
}

// wakeAfter marks t runnable at now+d. If a wake is already queued for
// the task (it is being re-scheduled), the stale event is dropped from
// the queue instead of leaking until pop: the latest wake wins.
//
//fractos:hotpath
func (t *Task) wakeAfter(d Time) {
	if t.wake != nil {
		t.k.cancel(t.wake)
		t.wake = nil
	}
	t.wake = t.k.schedule(t.k.now+d, t, nil)
}

// Sleep suspends the task for d of virtual time.
//
//fractos:hotpath
func (t *Task) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep is a scheduling point: other work
		// queued at this instant runs first.
		d = 0
	}
	t.wakeAfter(d)
	t.park()
}

// Yield gives other runnable tasks at the current instant a chance to
// run before the calling task continues.
//
//fractos:hotpath
func (t *Task) Yield() { t.Sleep(0) }

// Run executes events until the queue is empty or Stop is called. It
// returns the final virtual time. Run must be called from the
// goroutine that created the kernel.
func (k *Kernel) Run() Time {
	return k.loop(maxTime)
}

// RunUntil executes events with timestamps <= deadline and leaves the
// clock at deadline if events remain beyond it.
func (k *Kernel) RunUntil(deadline Time) Time {
	return k.loop(deadline)
}

// loop is the driver: it pops every event, runs closures in place and
// resumes tasks (Task.run) until next has nothing left for this run.
//
//fractos:hotpath
func (k *Kernel) loop(deadline Time) Time {
	defer k.flushProcessed()
	k.deadline = deadline
	for {
		t, fn := k.next()
		if fn != nil {
			fn()
			continue
		}
		if t == nil {
			return k.now
		}
		t.run()
	}
}

// next pops events in global (at, seq) order, advancing the clock,
// until one asks for something: a closure to run in kernel
// context or a task to resume. Tombstones and stale wakes of finished
// tasks are released on the way. Both results are nil, and the queues
// are left as they are, when nothing may run: both queues are empty,
// the next event lies past the loop's deadline (the clock then moves to
// the deadline), or Stop was called.
//
//fractos:hotpath
func (k *Kernel) next() (*Task, func()) {
	for !k.stopped {
		// Run-queue entries all carry the current timestamp and were
		// sequenced after every same-instant heap entry, so the heap
		// goes first only while its minimum is at the current instant.
		var e *event
		fromHeap := k.runq.n == 0 || (k.heap.len() > 0 && k.heap.es[0].at == k.now)
		if fromHeap {
			if k.heap.len() == 0 {
				break
			}
			e = k.heap.es[0]
		} else {
			e = k.runq.front()
		}
		if e.at > k.deadline {
			k.now = k.deadline
			break
		}
		if fromHeap {
			k.heap.pop()
		} else {
			k.runq.popFront()
		}
		k.processed++
		if e.at > k.now {
			k.now = e.at
		}
		t, fn := e.task, e.fn
		if t != nil && t.wake == e {
			t.wake = nil
		}
		k.release(e)
		if fn != nil || (t != nil && !t.done) {
			return t, fn
		}
	}
	return nil, nil
}

// flushProcessed publishes the batched event count to the global
// counter when a run loop exits.
func (k *Kernel) flushProcessed() {
	totalEvents.Add(k.processed)
	k.processed = 0
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Live reports how many tasks exist (runnable or blocked).
func (k *Kernel) Live() int { return len(k.tasks) }

// Shutdown forcibly unwinds every remaining task. It must be
// called from kernel context (after Run returns). The kernel must not
// be used afterwards.
func (k *Kernel) Shutdown() {
	// The kernel never runs again: a later Run returns at once.
	k.stopped = true
	if len(k.tasks) == 0 {
		return // nothing to unwind (and no id-slice/sort allocation)
	}
	// Collect ids first: unwinding mutates k.tasks. Deterministic
	// order (ids are spawn-ordered).
	ids := make([]uint64, 0, len(k.tasks))
	for id := range k.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t, ok := k.tasks[id]
		if !ok || t.done {
			continue
		}
		t.killed = true
		t.run()
	}
}
