//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Task pooling: a fresh task costs a Task struct and an iter.Pull
// coroutine (its closures plus a goroutine start) per spawn, the
// dominant cost of task-churn workloads (kernel/spawn). Instead, each
// Task's coroutine runs one task lifetime per iteration (Task.lives).
// A finished task yields at the bottom of its loop, the driver pushes
// it on a process-wide free stack, and Spawn re-arms one: a warm Spawn
// is a couple of field stores and a map insert, and the coroutine picks
// the new body up when the driver next resumes it.
//
// The pool is deliberately a mutex-guarded stack rather than a
// sync.Pool: each pooled Task owns a live suspended coroutine, and
// sync.Pool dropping items under GC pressure would leak those
// goroutines forever. Overflowing the bounded stack instead makes the
// driver stop the coroutine, ending its goroutine.
//
// Safety across kernels: the stack is shared by every kernel in the
// process, and nothing stops two kernels from running at once on
// different goroutines (two parallel tests in one binary), so pushes
// and pops are mutex-serialized, and a pooled coroutine may be resumed
// from a goroutine other than the one that created it. A task is only
// repooled after its kernel has unlinked it from the task table and
// cancelled any pending wake, so a pooled Task is referenced by nothing
// but the stack and its own coroutine. Which physical Task struct a
// Spawn receives depends on how concurrent kernels interleave — that is
// fine because task identity is never observable: ids are per-kernel
// spawn-ordered, and all scheduling state (wake, done, killed) is
// reset on re-arm.

// maxPooledTasks bounds the free stack (and thus the number of idle
// suspended coroutines kept alive).
const maxPooledTasks = 1 << 15

var taskPool struct {
	mu   sync.Mutex
	free []*Task
}

// getTask pops a pooled task (its coroutine suspended between lives)
// or builds a fresh one.
//
//fractos:hotpath
//fractos:pool-acquire simtask
func getTask() *Task {
	taskPool.mu.Lock()
	if n := len(taskPool.free); n > 0 {
		t := taskPool.free[n-1]
		taskPool.free[n-1] = nil
		taskPool.free = taskPool.free[:n-1]
		taskPool.mu.Unlock()
		return t
	}
	taskPool.mu.Unlock()
	t := &Task{}                          // fractos:alloc-ok cold refill; steady state recycles via putTask
	t.resume, t.stop = iter.Pull(t.lives) // fractos:alloc-ok cold refill: one coroutine per pooled Task
	return t
}

// putTask pushes a finished, fully unlinked task back on the stack.
// It reports false when the stack is full, telling the driver to stop
// the task's coroutine instead.
//
//fractos:hotpath
//fractos:pool-release simtask
func putTask(t *Task) bool {
	taskPool.mu.Lock()
	if len(taskPool.free) >= maxPooledTasks {
		taskPool.mu.Unlock()
		return false
	}
	taskPool.free = append(taskPool.free, t) // fractos:alloc-ok free-stack growth is amortized
	taskPool.mu.Unlock()
	return true
}

// lives is the body of a task's coroutine: each iteration is one task
// lifetime. Between lives the coroutine is suspended in the yield at
// the bottom of the loop; the driver's resume for Spawn's wake event
// continues it with fresh k/id/name/fn fields (the coroutine switch is
// the happens-before edge making those writes visible). yield reports
// false once the driver stops the coroutine, which ends it.
func (t *Task) lives(yield func(struct{}) bool) {
	t.yield = yield
	for {
		// Note: the body runs even when killed before first resume
		// (Shutdown on a spawned-but-never-run task starts it; the
		// body unwinds at its first park).
		t.exec()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run resumes t until it parks or finishes. A finished task is
// repooled right here on the driver, or its coroutine stopped when the
// free stack is full. A task panic ends the coroutine and comes out of
// resume (iter.Pull carries it to the caller), leaving this task
// unpooled.
//
//fractos:hotpath
func (t *Task) run() {
	t.resume()
	if !t.done {
		return
	}
	t.k, t.fn, t.name = nil, nil, ""
	if !putTask(t) {
		t.stop()
	}
}

// exec runs one task body with the kernel's panic discipline: a kill
// unwinds quietly; any other panic is re-raised, after finish, with the
// task's name, which ends the coroutine and reaches Run's caller.
func (t *Task) exec() {
	defer func() {
		r := recover()
		t.finish()
		if _, kill := r.(killSignal); r != nil && !kill {
			//fractos:panic-ok re-raising a task's panic; iter.Pull carries it to Run's caller
			panic(fmt.Sprintf("task %q panicked: %v", t.name, r))
		}
	}()
	t.fn(t)
}

// finish unlinks a task from its kernel at the end of a lifetime:
// marks it done, drops any still-queued wake (so no queue retains a
// pointer into the pool), and removes it from the task table.
func (t *Task) finish() {
	t.done = true
	if t.wake != nil {
		t.k.cancel(t.wake)
		t.wake = nil
	}
	delete(t.k.tasks, t.id)
}
