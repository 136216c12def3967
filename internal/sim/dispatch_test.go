package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// These tests cover the event loop and the switches around it: the
// driver (Run's caller) pops every event and runs closures itself, and
// a task that parks or finishes switches its coroutine straight back to
// the driver, which resumes the next task.

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"), so a test can tell which goroutine ran a
// closure.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		panic("goid: unexpected stack header " + f[0] + " " + f[1])
	}
	return id
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func() Time) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// eventLog records "<µs> <what>" lines in the order they happen.
type eventLog struct {
	k     *Kernel
	lines []string
}

func (l *eventLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("%d ", l.k.Now()/time.Microsecond)+fmt.Sprintf(format, args...))
}

func (l *eventLog) check(t *testing.T, want ...string) {
	t.Helper()
	if strings.Join(l.lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("event order:\n  %s\nwant:\n  %s", strings.Join(l.lines, "\n  "), strings.Join(want, "\n  "))
	}
}

// closurePanic is a non-string panic value, so the test can tell the
// closure's own value from the kernel's "task ... panicked" message.
type closurePanic struct{ at Time }

func TestDispatchClosurePanicKeepsValue(t *testing.T) {
	k := New(1)
	var gClosure uint64
	woke := Time(-1)
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(us(10)) // parked: the driver runs the closure at 5 µs
		woke = tk.Now()
	})
	k.After(us(5), func() {
		gClosure = goid()
		panic(closurePanic{k.Now()})
	})
	r := recovered(k.Run)
	if p, ok := r.(closurePanic); !ok || p.at != us(5) {
		t.Fatalf("Run panicked with %#v, want closurePanic{at: 5µs}", r)
	}
	if g := goid(); gClosure != g {
		t.Fatalf("closure ran on goroutine %d, want Run's caller %d", gClosure, g)
	}
	// The panic did not unwind the task: it is still parked and wakes
	// on time once the driver runs again.
	if end := k.Run(); end != us(10) || woke != us(10) {
		t.Fatalf("after the panic: run ended at %v, task woke at %v; want both 10µs", end, woke)
	}
	k.Shutdown()
}

func TestDispatchRunUntilStopsAtDeadline(t *testing.T) {
	k := New(1)
	log := &eventLog{k: k}
	in := NewChan[int](k, "in", 0)
	k.Spawn("rx", func(tk *Task) {
		for i := 0; i < 3; i++ {
			v, _ := in.Recv(tk)
			log.add("rx %d", v)
		}
	})
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(us(25))
		log.add("sleeper")
	})
	for i, at := range []int64{5, 15, 30} {
		v := i
		k.After(us(at), func() {
			log.add("feed %d", v)
			in.TrySend(v)
		})
	}
	// rx drives dispatch from 5 µs on; after its second message the
	// next event (the sleeper's wake at 25) lies past the deadline.
	if end := k.RunUntil(us(20)); end != us(20) || k.Now() != us(20) {
		t.Fatalf("RunUntil(20µs) = %v, clock %v; want both 20µs", end, k.Now())
	}
	log.check(t, "5 feed 0", "5 rx 0", "15 feed 1", "15 rx 1")
	if k.heap.len() != 2 || k.runq.n != 0 {
		t.Fatalf("queued after the deadline: heap %d, runq %d; want the 25µs wake and the 30µs closure", k.heap.len(), k.runq.n)
	}
	if end := k.Run(); end != us(30) {
		t.Fatalf("Run ended at %v, want 30µs", end)
	}
	log.check(t, "5 feed 0", "5 rx 0", "15 feed 1", "15 rx 1", "25 sleeper", "30 feed 2", "30 rx 2")
	k.Shutdown()
}

func TestDispatchStopFromInlineClosure(t *testing.T) {
	k := New(1)
	log := &eventLog{k: k}
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(us(10))
		log.add("woke")
	})
	k.After(us(5), func() {
		log.add("stop")
		k.Stop()
	})
	k.After(us(6), func() { log.add("late") })
	if end := k.Run(); end != us(5) {
		t.Fatalf("Run ended at %v, want 5µs", end)
	}
	log.check(t, "5 stop")
	k.Run() // Stop is sticky: nothing more runs
	log.check(t, "5 stop")
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live=%d after Shutdown", k.Live())
	}
}

func TestDispatchFinishingTaskHandsOff(t *testing.T) {
	k := New(1)
	log := &eventLog{k: k}
	in := NewChan[int](k, "in", 0)
	never := NewChan[int](k, "never", 0)
	var gClosure uint64
	k.Spawn("short", func(tk *Task) {
		tk.Sleep(us(3))
		log.add("short done")
	})
	k.Spawn("rx", func(tk *Task) {
		v, _ := in.Recv(tk)
		log.add("rx %d", v)
	})
	unwound := 0
	k.Spawn("stuck", func(tk *Task) {
		defer func() { unwound++ }()
		never.Recv(tk)
	})
	k.After(us(4), func() {
		gClosure = goid()
		log.add("feed")
		in.TrySend(7)
	})
	k.Run()
	log.check(t, "3 short done", "4 feed", "4 rx 7")
	// short finished with every other task blocked: its coroutine
	// switched back to the driver, which ran the 4 µs closure itself
	// and then resumed rx.
	if g := goid(); gClosure != g {
		t.Fatalf("closure ran on goroutine %d, want Run's caller %d", gClosure, g)
	}
	if k.Live() != 1 {
		t.Fatalf("live=%d before Shutdown, want 1 (stuck)", k.Live())
	}
	k.Shutdown()
	if unwound != 1 || k.Live() != 0 {
		t.Fatalf("Shutdown: unwound=%d live=%d, want 1 and 0", unwound, k.Live())
	}
}

// TestDispatchCrossInstantOrder checks a hand-computed interleaving of
// tasks sleeping to distinct instants, After closures waking them
// through Chan.TrySend, re-scheduled wakes (a heap wake moved earlier;
// a run-queue wake left as a tombstone) and tasks finishing mid-chain.
func TestDispatchCrossInstantOrder(t *testing.T) {
	k := New(1)
	log := &eventLog{k: k}
	ch := NewChan[int](k, "ch", 0)
	k.Spawn("a", func(tk *Task) {
		log.add("a start")
		tk.Sleep(us(10))
		log.add("a woke")
		v, _ := ch.Recv(tk)
		log.add("a got %d", v)
		tk.Sleep(us(5))
		log.add("a done")
	})
	b := k.Spawn("b", func(tk *Task) {
		log.add("b start")
		tk.Sleep(us(30)) // cut short to 25 µs by the 17 µs closure
		log.add("b woke")
		v, _ := ch.Recv(tk)
		log.add("b got %d", v)
	})
	k.Spawn("c", func(tk *Task) {
		log.add("c start")
		tk.Sleep(us(20))
		log.add("c woke")
	})
	d := k.Spawn("d", func(tk *Task) {
		log.add("d start")
		tk.Sleep(us(40)) // moved to 22 µs, then to 25 µs
		log.add("d woke")
	})
	k.After(us(15), func() {
		log.add("f15")
		ch.TrySend(1) // a is parked in Recv
	})
	k.After(us(17), func() {
		log.add("f17")
		b.wakeAfter(us(8)) // stale 30 µs wake leaves the heap
	})
	k.After(us(20), func() {
		log.add("f20")
		ch.TrySend(2) // nobody receiving: buffered for b
	})
	k.After(us(22), func() {
		log.add("f22")
		d.wakeAfter(0)     // cancels the 40 µs wake
		d.wakeAfter(us(3)) // leaves the 22 µs run-queue wake as a tombstone
	})
	if end := k.Run(); end != us(25) {
		t.Fatalf("Run ended at %v, want 25µs", end)
	}
	// At 20 µs the closure (sequenced before Run) precedes c's wake
	// (sequenced at 0 µs), which precedes a's (sequenced at 15 µs); c
	// and a each finish and hand control on. At 25 µs b's wake
	// (sequenced at 17 µs) precedes d's (at 22 µs).
	log.check(t,
		"0 a start", "0 b start", "0 c start", "0 d start",
		"10 a woke",
		"15 f15", "15 a got 1",
		"17 f17",
		"20 f20", "20 c woke", "20 a done",
		"22 f22",
		"25 b woke", "25 b got 2", "25 d woke")
	if k.Live() != 0 {
		t.Fatalf("live=%d, want 0", k.Live())
	}
}
