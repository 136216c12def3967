// Package simdetdata exercises the simdet analyzer: wall-clock reads,
// global math/rand, raw goroutines, and order-sensitive map ranges.
package simdetdata

import (
	"math/rand"
	"sort"
	"time"
)

type net struct{}

func (n *net) Send(to uint32, payload string) {}

type kernel struct{}

func (k *kernel) Spawn(name string, fn func()) {}
func (k *kernel) Now() int64                   { return 0 }

// Kernel mirrors the internal/sim shape the retained-RNG check keys
// on (the analyzer matches by type name).
type Kernel struct{}

func (k *Kernel) Rand() *rand.Rand { return nil }

// wallClock demonstrates every forbidden time call.
func wallClock(k *kernel) {
	t0 := time.Now()              // want `time.Now reads the wall clock`
	_ = time.Since(t0)            // want `time.Since reads the wall clock`
	time.Sleep(time.Second)       // want `time.Sleep reads the wall clock`
	<-time.After(time.Nanosecond) // want `time.After reads the wall clock`
	_ = k.Now()                   // virtual clock: fine
	_ = time.Duration(5)          // type conversions are fine
}

// pacing shows the documented waiver.
func pacing() {
	//fractos:nondet-ok wall-clock pacing is an explicit opt-in feature
	_ = time.Now()
}

// globalRand demonstrates the global-source ban and the seeded
// alternative.
func globalRand() {
	_ = rand.Intn(10)                  // want `rand.Intn uses the global math/rand source`
	rand.Shuffle(3, func(i, j int) {}) // want `rand.Shuffle uses the global math/rand source`
	r := rand.New(rand.NewSource(42))  // seeded private source: fine
	_ = r.Intn(10)                     // method on a private source: fine
}

// rawGoroutine escapes the cooperative scheduler.
func rawGoroutine(k *kernel) {
	go func() {}() // want `raw goroutine escapes the deterministic kernel`
	k.Spawn("worker", func() {})
}

// mapOrder publishes map iteration order into the message stream.
func mapOrder(n *net, peers map[uint32]string) {
	for id, p := range peers { // want `map iteration order feeds Send`
		n.Send(id, p)
	}

	// Sorted iteration: fine.
	ids := make([]uint32, 0, len(peers))
	for id := range peers { // collecting keys has no ordered effect
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n.Send(id, peers[id])
	}

	// Commutative mutation inside a map range: fine.
	total := 0
	for _, p := range peers {
		total += len(p)
	}
	_ = total

	//fractos:nondet-ok delivery order irrelevant in this diagnostic dump
	for id, p := range peers {
		n.Send(id, p)
	}
}

// retainer holds a stream across calls — the shape hole 5 forbids.
type retainer struct {
	rng *rand.Rand
}

var globalStream *rand.Rand

// retainedRand demonstrates the kernel-RNG retention ban.
func retainedRand(k *Kernel, r *retainer) {
	r.rng = k.Rand()        // want `Kernel.Rand\(\) retained beyond its call site`
	globalStream = k.Rand() // want `Kernel.Rand\(\) retained beyond its call site`
	local := k.Rand()       // local use at the draw site: fine
	_ = local.Intn(10)
	//fractos:nondet-ok single-kernel harness, stream never outlives it
	r.rng = k.Rand()
}
