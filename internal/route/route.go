// Package route is the replicated-service layer over the name
// registry: client-side routing policies and a resolving balancer
// (Balancer), replica-side queue-depth admission control (Replica),
// and a reactive autoscaler (Autoscaler) driven by NodeWatch health
// events plus load signals.
//
// Everything runs on the deterministic kernel: policies are pure
// functions of the member view plus their own explicit state, load
// signals are virtual-time queue depths, and ties break toward the
// lowest member id — so a fixed seed and policy produce byte-identical
// routing decisions and fabric traces at any GOMAXPROCS (pinned by
// this package's determinism tests).
package route

// MemberView is one replica as a routing policy sees it: identity,
// placement, and the client's current load estimate for it (its own
// in-flight calls plus the queue depth the replica piggybacked on its
// last reply).
type MemberView struct {
	ID   uint64
	Node int
	Load int
}

// Policy selects a member from a non-empty view. Implementations may
// carry state (round-robin cursors) but must be deterministic: the
// same view sequence produces the same pick sequence.
type Policy interface {
	Name() string
	Pick(view []MemberView) int
}

// RoundRobin cycles through the view in order. With members coming and
// going the cursor is interpreted modulo the current view size, so the
// policy stays well-defined across membership changes.
type RoundRobin struct {
	next uint64
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "rr" }

// Pick implements Policy.
func (p *RoundRobin) Pick(view []MemberView) int {
	i := int(p.next % uint64(len(view)))
	p.next++
	return i
}

// LeastLoaded picks the member with the smallest load estimate
// (join-shortest-queue on client-observed signals), breaking ties
// toward the lowest member id.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least" }

// Pick implements Policy.
func (LeastLoaded) Pick(view []MemberView) int {
	best := 0
	for i := 1; i < len(view); i++ {
		if view[i].Load < view[best].Load ||
			(view[i].Load == view[best].Load && view[i].ID < view[best].ID) {
			best = i
		}
	}
	return best
}

// Affinity prefers members on the client's own node while their load
// stays under Spill, then falls back to least-loaded across the whole
// view — locality wins until the local replicas queue up.
type Affinity struct {
	// Node is the client's node.
	Node int
	// Spill is the local load bound; 0 means DefaultSpill.
	Spill int
}

// DefaultSpill is Affinity's local-queue bound when Spill is zero.
const DefaultSpill = 4

// Name implements Policy.
func (p *Affinity) Name() string { return "affinity" }

// Pick implements Policy.
func (p *Affinity) Pick(view []MemberView) int {
	spill := p.Spill
	if spill <= 0 {
		spill = DefaultSpill
	}
	best := -1
	for i := range view {
		if view[i].Node != p.Node || view[i].Load >= spill {
			continue
		}
		if best < 0 || view[i].Load < view[best].Load ||
			(view[i].Load == view[best].Load && view[i].ID < view[best].ID) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return LeastLoaded{}.Pick(view)
}

// ParsePolicy maps a policy name ("rr", "least", "affinity") to a
// fresh policy instance; node is the client's node for affinity.
// Unknown names fall back to round-robin.
func ParsePolicy(name string, node int) Policy {
	switch name {
	case "least":
		return LeastLoaded{}
	case "affinity":
		return &Affinity{Node: node}
	default:
		return &RoundRobin{}
	}
}
