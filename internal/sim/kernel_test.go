package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func us(n int64) Time { return Time(n) * time.Microsecond }

func TestSleepAdvancesVirtualClock(t *testing.T) {
	k := New(1)
	var woke Time
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(us(500))
		woke = tk.Now()
	})
	end := k.Run()
	if woke != us(500) {
		t.Errorf("woke at %v, want %v", woke, us(500))
	}
	if end != us(500) {
		t.Errorf("run ended at %v, want %v", end, us(500))
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	k := New(1)
	var order []int
	for i, d := range []int64{30, 10, 20, 10, 0} {
		i, d := i, d
		k.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) {
			tk.Sleep(us(d))
			order = append(order, i)
		})
	}
	k.Run()
	want := []int{4, 1, 3, 2, 0} // by (time, spawn order)
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) {
			order = append(order, i)
		})
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterRunsInKernelContext(t *testing.T) {
	k := New(1)
	fired := Time(-1)
	k.After(us(42), func() { fired = k.Now() })
	k.Run()
	if fired != us(42) {
		t.Errorf("After fired at %v, want %v", fired, us(42))
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := New(1)
	var last Time
	k.Spawn("ticker", func(tk *Task) {
		for i := 0; i < 100; i++ {
			tk.Sleep(us(10))
			last = tk.Now()
		}
	})
	end := k.RunUntil(us(35))
	if end != us(35) {
		t.Errorf("RunUntil returned %v, want %v", end, us(35))
	}
	if last != us(30) {
		t.Errorf("last tick at %v, want %v", last, us(30))
	}
	// Resuming runs the remainder.
	k.Run()
	if last != us(1000) {
		t.Errorf("after full run last tick %v, want %v", last, us(1000))
	}
}

func TestSpawnFromTask(t *testing.T) {
	k := New(1)
	var got []string
	k.Spawn("parent", func(tk *Task) {
		tk.Kernel().Spawn("child", func(c *Task) {
			got = append(got, "child@"+c.Now().String())
		})
		tk.Sleep(us(1))
		got = append(got, "parent@"+tk.Now().String())
	})
	k.Run()
	if len(got) != 2 || got[0] != "child@0s" {
		t.Fatalf("unexpected order: %v", got)
	}
}

func TestUnboundedChan(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	var got []int
	k.Spawn("recv", func(tk *Task) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(tk)
			if !ok {
				t.Errorf("unexpected close")
			}
			got = append(got, v)
		}
	})
	k.Spawn("send", func(tk *Task) {
		for i := 1; i <= 3; i++ {
			ch.Send(tk, i*10)
			tk.Sleep(us(5))
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestBoundedChanBlocksSender(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 1)
	var sendDone, recvAt Time
	k.Spawn("send", func(tk *Task) {
		ch.Send(tk, 1) // fills buffer
		ch.Send(tk, 2) // blocks until receiver drains
		sendDone = tk.Now()
	})
	k.Spawn("recv", func(tk *Task) {
		tk.Sleep(us(100))
		ch.Recv(tk)
		recvAt = tk.Now()
		ch.Recv(tk)
	})
	k.Run()
	if sendDone < recvAt {
		t.Errorf("second send completed at %v before receive at %v", sendDone, recvAt)
	}
}

func TestChanCloseDrainsThenReportsNotOK(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	var vals []int
	var closedOK = true
	k.Spawn("recv", func(tk *Task) {
		for {
			v, ok := ch.Recv(tk)
			if !ok {
				closedOK = false
				return
			}
			vals = append(vals, v)
		}
	})
	k.Spawn("send", func(tk *Task) {
		ch.Send(tk, 1)
		ch.Send(tk, 2)
		tk.Sleep(us(1))
		ch.Close()
	})
	k.Run()
	if len(vals) != 2 || closedOK {
		t.Fatalf("vals=%v closedOK=%v", vals, closedOK)
	}
}

func TestRecvTimeout(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	var timedOut bool
	var at Time
	k.Spawn("recv", func(tk *Task) {
		_, ok := ch.RecvTimeout(tk, us(50))
		timedOut = !ok
		at = tk.Now()
	})
	k.Run()
	if !timedOut || at != us(50) {
		t.Fatalf("timedOut=%v at=%v", timedOut, at)
	}
}

func TestRecvTimeoutDeliveredInTime(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	var got int
	var ok bool
	k.Spawn("recv", func(tk *Task) {
		got, ok = ch.RecvTimeout(tk, us(50))
		// The timer still fires later; it must be a no-op.
		tk.Sleep(us(100))
	})
	k.Spawn("send", func(tk *Task) {
		tk.Sleep(us(10))
		ch.Send(tk, 7)
	})
	k.Run()
	if !ok || got != 7 {
		t.Fatalf("got=%d ok=%v", got, ok)
	}
}

func TestFutureResolvesWaiters(t *testing.T) {
	k := New(1)
	f := NewFuture[string](k)
	var got [2]string
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(tk *Task) {
			v, err := f.Wait(tk)
			if err != nil {
				t.Errorf("unexpected err: %v", err)
			}
			got[i] = v
		})
	}
	k.Spawn("set", func(tk *Task) {
		tk.Sleep(us(5))
		f.Set("done")
	})
	k.Run()
	if got[0] != "done" || got[1] != "done" {
		t.Fatalf("got %v", got)
	}
}

func TestFutureFail(t *testing.T) {
	k := New(1)
	f := NewFuture[int](k)
	var err error
	k.Spawn("w", func(tk *Task) { _, err = f.Wait(tk) })
	k.Spawn("fail", func(tk *Task) { f.Fail(fmt.Errorf("boom")) })
	k.Run()
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err=%v", err)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	var wg WaitGroup
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("w", func(tk *Task) {
			tk.Sleep(us(int64(i * 10)))
			wg.Done()
		})
	}
	k.Spawn("waiter", func(tk *Task) {
		wg.Wait(tk)
		doneAt = tk.Now()
	})
	k.Run()
	if doneAt != us(30) {
		t.Fatalf("wait finished at %v, want %v", doneAt, us(30))
	}
}

func TestSemaphoreWindow(t *testing.T) {
	k := New(1)
	sem := NewSemaphore(2)
	inflight, maxInflight := 0, 0
	var wg WaitGroup
	wg.Add(5)
	for i := 0; i < 5; i++ {
		k.Spawn("worker", func(tk *Task) {
			sem.Acquire(tk)
			inflight++
			if inflight > maxInflight {
				maxInflight = inflight
			}
			tk.Sleep(us(10))
			inflight--
			sem.Release()
			wg.Done()
		})
	}
	k.Run()
	if maxInflight != 2 {
		t.Fatalf("max inflight %d, want 2", maxInflight)
	}
}

func TestShutdownUnwindsBlockedTasks(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "never", 0)
	cleaned := 0
	for i := 0; i < 4; i++ {
		k.Spawn("stuck", func(tk *Task) {
			defer func() { cleaned++ }()
			ch.Recv(tk) // blocks forever
		})
	}
	k.Run()
	if k.Live() != 4 {
		t.Fatalf("live=%d want 4", k.Live())
	}
	k.Shutdown()
	if cleaned != 4 || k.Live() != 0 {
		t.Fatalf("cleaned=%d live=%d", cleaned, k.Live())
	}
}

func TestTaskPanicPropagatesToRun(t *testing.T) {
	k := New(1)
	k.Spawn("bomb", func(tk *Task) { panic("kaboom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from Run")
		}
	}()
	k.Run()
}

// TestDeterminism runs a randomized workload twice with the same seed
// and requires identical event traces (property: the simulation is a
// deterministic function of its seed).
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		k := New(seed)
		ch := NewChan[int](k, "c", 4)
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("producer", func(tk *Task) {
				for j := 0; j < 5; j++ {
					tk.Sleep(Time(k.Rand().Intn(100)) * time.Nanosecond)
					ch.Send(tk, i*100+j)
				}
			})
		}
		k.Spawn("consumer", func(tk *Task) {
			for n := 0; n < 40; n++ {
				v, _ := ch.Recv(tk)
				trace = append(trace, fmt.Sprintf("%d@%v", v, tk.Now()))
			}
		})
		k.Run()
		return trace
	}
	check := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleWakeIgnored(t *testing.T) {
	// A task that finishes while a timer wake for it is still queued
	// must not be resumed again.
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	k.Spawn("short", func(tk *Task) {
		// RecvTimeout schedules a timer; value arrives first, task
		// exits, then the timer fires against a finished task.
		v, ok := ch.RecvTimeout(tk, us(100))
		if !ok || v != 1 {
			t.Errorf("v=%d ok=%v", v, ok)
		}
	})
	k.Spawn("send", func(tk *Task) { ch.Send(tk, 1) })
	k.Run() // must not deadlock or panic
}

// TestTaskPoolRecycles pins the Spawn fast path: steady-state spawns
// reuse pooled Task structs and parked goroutines instead of
// allocating.
func TestTaskPoolRecycles(t *testing.T) {
	// Warm the pool with more tasks than the second kernel will hold
	// live at once, so its measured spawns never hit the cold path.
	k := New(1)
	total := 0
	for i := 0; i < 100; i++ {
		k.Spawn("unit", func(tk *Task) {
			tk.Sleep(10)
			total++
		})
	}
	k.Run()
	if total != 100 {
		t.Fatalf("ran %d of 100 tasks", total)
	}
	k.Shutdown()

	// Trampolines repool asynchronously after yielding; wait until the
	// free stack has absorbed the finished tasks before measuring.
	for i := 0; i < 1000; i++ {
		taskPool.mu.Lock()
		n := len(taskPool.free)
		taskPool.mu.Unlock()
		if n >= 100 {
			break
		}
		runtime.Gosched()
	}

	// A second kernel reusing the warmed pool must behave identically.
	k2 := New(1)
	total2 := 0
	for i := 0; i < 50; i++ {
		k2.Spawn("unit", func(tk *Task) {
			tk.Sleep(10)
			total2++
		})
	}
	extra := func(tk *Task) { total2++ }
	allocs := testing.AllocsPerRun(10, func() {
		k2.Spawn("extra", extra)
	})
	k2.Run()
	k2.Shutdown()
	if total2 != 50+11 {
		t.Fatalf("ran %d tasks, want %d", total2, 61)
	}
	// Warm spawns: no Task/goroutine/channel allocations (the task
	// table insert and event slab refill may allocate occasionally).
	if !raceEnabled && allocs > 1 {
		t.Fatalf("warm Spawn allocates %.1f times per call", allocs)
	}
}

// TestDirectSwitchKeepsOrder pins the park fast path against the
// kernel-loop scheduling order: two tasks ping-ponging over channels
// at one instant interleave exactly FIFO.
func TestDirectSwitchKeepsOrder(t *testing.T) {
	k := New(3)
	ch := NewChan[int](k, "pp", 1)
	var order []int
	k.Spawn("a", func(tk *Task) {
		for i := 0; i < 5; i++ {
			ch.Send(tk, i)
			order = append(order, 100+i)
			tk.Yield()
		}
	})
	k.Spawn("b", func(tk *Task) {
		for i := 0; i < 5; i++ {
			v, ok := ch.Recv(tk)
			if !ok {
				t.Errorf("channel closed early")
				return
			}
			order = append(order, 200+v)
		}
	})
	k.Run()
	k.Shutdown()
	want := []int{100, 200, 101, 201, 102, 202, 103, 203, 104, 204}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}
