// Package fabric models the data-center network of the FractOS
// testbed: a small cluster of nodes with RoCE NICs and optional
// SmartNICs, joined by a 10 Gbps switch (Table 2 of the paper).
//
// The fabric is the substitution point for the hardware the paper
// uses: every message is really serialized with the wire codec, its
// byte length is charged against link bandwidth, and per-class
// (control vs data) message and byte counters feed the
// traffic-reduction experiments. RDMA read/write/third-party-copy
// primitives move real bytes between registered memory arenas with
// modeled latency, standing in for the verbs API.
package fabric

import (
	"fmt"

	"fractos/internal/sim"
	"fractos/internal/wire"
)

// EndpointID identifies an attached entity (Process or Controller).
type EndpointID uint32

// Domain says where on a node an endpoint executes.
type Domain uint8

const (
	// Host is the node's main CPU (processes, CPU controllers).
	Host Domain = iota
	// SNIC is the node's SmartNIC (BlueField-style ARM cores).
	SNIC
)

func (d Domain) String() string {
	if d == SNIC {
		return "snic"
	}
	return "host"
}

// Location places an endpoint on the cluster.
type Location struct {
	Node   int
	Domain Domain
}

func (l Location) String() string { return fmt.Sprintf("n%d/%s", l.Node, l.Domain) }

// Profile holds the latency/bandwidth calibration of the fabric. The
// defaults reproduce the measurements of Table 3 and the RDMA numbers
// quoted in §6.1.
type Profile struct {
	// HostExit/HostEntry: cost of a message leaving/entering a
	// host-CPU endpoint through the NIC (PCIe + doorbell + poll).
	HostExit  sim.Time
	HostEntry sim.Time
	// SNICExit/SNICEntry: the same for endpoints on the SmartNIC
	// itself. Entry is slower than exit: the wimpy ARM cores pay more
	// to receive and demultiplex than to post a send.
	SNICExit  sim.Time
	SNICEntry sim.Time
	// NICTurn: latency through the local NIC for same-node traffic.
	NICTurn sim.Time
	// CrossNode: one-way wire+switch latency between nodes.
	CrossNode sim.Time
	// RDMARemote: per-direction NIC-only cost at the passive side of
	// an RDMA operation (no CPU involvement).
	RDMARemote sim.Time
	// WireBW: link bandwidth in bytes/second (10 Gbps default).
	WireBW float64
	// LocalBW: bandwidth for same-node transfers (PCIe-bound).
	LocalBW float64
}

// DefaultProfile returns the calibration used throughout the
// evaluation (Table 2's 10 Gbps fabric; Table 3's latencies).
func DefaultProfile() Profile {
	return Profile{
		HostExit:   600 * nanosecond,
		HostEntry:  610 * nanosecond,
		SNICExit:   300 * nanosecond,
		SNICEntry:  2170 * nanosecond,
		NICTurn:    0,
		CrossNode:  850 * nanosecond,
		RDMARemote: 250 * nanosecond,
		WireBW:     1.25e9, // 10 Gbps
		LocalBW:    6.0e9,  // PCIe loopback
	}
}

const nanosecond = sim.Time(1)

// exit returns the sender-side latency for a domain.
//
//fractos:hotpath
func (p *Profile) exit(d Domain) sim.Time {
	if d == SNIC {
		return p.SNICExit
	}
	return p.HostExit
}

// entry returns the receiver-side latency for a domain.
//
//fractos:hotpath
func (p *Profile) entry(d Domain) sim.Time {
	if d == SNIC {
		return p.SNICEntry
	}
	return p.HostEntry
}

// Delivery is a message as it arrives at an endpoint's inbox.
type Delivery struct {
	From  EndpointID
	Msg   wire.Message
	Bytes int
}

// Endpoint is an attached entity with an inbox and (optionally) an
// RDMA-registered memory arena.
type Endpoint struct {
	ID    EndpointID
	Name  string
	Loc   Location
	Inbox *sim.Chan[Delivery]

	// arena is materialized lazily on first byte access: many endpoints
	// (notably per-cluster controller bounce arenas in the evaluation
	// sweeps) register large arenas that are never touched, and the
	// registration size alone drives the timing model. arenaSize is the
	// registered size; arena stays nil until Arena() is called.
	arena        []byte
	arenaSize    int
	disconnected bool
}

// Arena returns the endpoint's registered memory, materializing the
// full backing storage on first use. Local code (the owning Process)
// accesses it directly; remote access goes through the RDMA
// primitives. Once Arena has been called the backing store is final:
// retained slices stay valid and all later RDMA traffic lands in them.
func (e *Endpoint) Arena() []byte {
	if len(e.arena) < e.arenaSize {
		nb := make([]byte, e.arenaSize)
		copy(nb, e.arena)
		e.arena = nb
	}
	return e.arena
}

// arenaRange returns the arena bytes [off, off+n), materializing only
// enough backing storage (a prefix, grown geometrically) to cover the
// range. The fabric's RDMA copy path uses this so endpoints whose
// arenas are touched purely through RDMA — Controller bounce pools
// above all — pay for the bytes they actually use, not the registered
// size. Callers must not retain the returned slice across other arena
// operations: a later growth re-allocates the backing store (growth
// can no longer happen once Arena() has materialized the full size,
// which is why externally retained Arena() slices stay safe).
func (e *Endpoint) arenaRange(off, n int) []byte {
	if need := off + n; need > len(e.arena) {
		newLen := 2 * len(e.arena)
		if newLen < need {
			newLen = need
		}
		if newLen > e.arenaSize {
			newLen = e.arenaSize
		}
		nb := make([]byte, newLen)
		copy(nb, e.arena)
		e.arena = nb
	}
	return e.arena[off : off+n]
}

// ArenaSize returns the registered arena size without materializing
// the backing storage. Bounds checks and capacity accounting should
// use this instead of len(Arena()).
func (e *Endpoint) ArenaSize() int { return e.arenaSize }

// Stats are the fabric's cumulative traffic counters, split by
// message class.
type Stats struct {
	ControlMsgs  int64
	ControlBytes int64
	DataMsgs     int64
	DataBytes    int64
	// CrossNodeMsgs/Bytes count only traffic that traversed the
	// switch (the "network tax" the paper measures); same-node
	// loopback and PCIe traffic is excluded. The Ctrl/Data split
	// distinguishes control-plane messages from bulk transfers.
	CrossNodeMsgs      int64
	CrossNodeBytes     int64
	CrossNodeCtrlMsgs  int64
	CrossNodeDataMsgs  int64
	CrossNodeDataBytes int64
	// RDMAOps/Bytes count one-sided RDMA transfers (also included in
	// Data and, when remote, CrossNode).
	RDMAOps   int64
	RDMABytes int64
}

// Sub returns s - o, for measuring an interval between snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ControlMsgs:        s.ControlMsgs - o.ControlMsgs,
		ControlBytes:       s.ControlBytes - o.ControlBytes,
		DataMsgs:           s.DataMsgs - o.DataMsgs,
		DataBytes:          s.DataBytes - o.DataBytes,
		CrossNodeMsgs:      s.CrossNodeMsgs - o.CrossNodeMsgs,
		CrossNodeBytes:     s.CrossNodeBytes - o.CrossNodeBytes,
		CrossNodeCtrlMsgs:  s.CrossNodeCtrlMsgs - o.CrossNodeCtrlMsgs,
		CrossNodeDataMsgs:  s.CrossNodeDataMsgs - o.CrossNodeDataMsgs,
		CrossNodeDataBytes: s.CrossNodeDataBytes - o.CrossNodeDataBytes,
		RDMAOps:            s.RDMAOps - o.RDMAOps,
		RDMABytes:          s.RDMABytes - o.RDMABytes,
	}
}

// TotalMsgs returns control+data message count.
func (s Stats) TotalMsgs() int64 { return s.ControlMsgs + s.DataMsgs }

// TotalBytes returns control+data byte count.
func (s Stats) TotalBytes() int64 { return s.ControlBytes + s.DataBytes }

// TraceEvent describes one fabric transfer, for the trace tool and
// tests.
type TraceEvent struct {
	At    sim.Time
	From  EndpointID
	To    EndpointID
	Type  wire.Type // 0 for RDMA transfers
	RDMA  bool
	Bytes int
	Class wire.Class
	// Lost marks a frame the chaos layer consumed (probabilistic drop
	// or a cut path): it occupied the wire but was never delivered.
	Lost bool
}

// link models a transmission resource with bandwidth: transmissions
// serialize (a new one starts no earlier than the previous finished).
type link struct {
	bw        float64
	busyUntil sim.Time
}

// reserve books n bytes starting at now, returning when the
// transmission completes on this link.
//
//fractos:hotpath
func (l *link) reserve(now sim.Time, n int) sim.Time {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	dur := sim.Time(float64(n) / l.bw * 1e9)
	l.busyUntil = start + dur
	return l.busyUntil
}

// nodeLinks bundles a node's three transmission resources: switch
// uplink (tx), switch downlink (rx), and the local/PCIe path. Stored
// by value in a slice indexed by node so the hot send path does no
// map lookups and no per-link pointer chasing.
type nodeLinks struct {
	up, dn, loc link
	valid       bool
}

// Net is the simulated fabric.
type Net struct {
	k    *sim.Kernel
	prof Profile
	// eps is indexed by EndpointID; IDs are assigned sequentially from 1
	// so index 0 stays nil. A slice keeps the two endpoint resolutions on
	// the per-message send path branch-predictable and map-free.
	eps   []*Endpoint
	stats Stats
	trace func(TraceEvent)
	links []nodeLinks // indexed by node number
	// faults is the chaos layer (faults.go); nil when disabled, which
	// keeps the fault-free send path branch-cheap and byte-identical
	// to a build without the layer.
	faults *faultState
}

// New creates a fabric over the given kernel with profile p.
func New(k *sim.Kernel, p Profile) *Net {
	return &Net{
		k:    k,
		prof: p,
		eps:  make([]*Endpoint, 1), // index 0 unused; IDs start at 1
	}
}

// Kernel returns the simulation kernel the fabric runs on.
func (n *Net) Kernel() *sim.Kernel { return n.k }

// Lossy reports whether the chaos layer is installed: frames may be
// dropped, duplicated, delayed, or cut. Receivers use it (together
// with an armed RPCTimeout) to decide whether at-most-once machinery
// needs to run at all.
//
//fractos:hotpath
func (n *Net) Lossy() bool { return n.faults != nil }

// Profile returns the fabric's calibration.
func (n *Net) Profile() Profile { return n.prof }

// SetTrace installs a hook invoked for every transfer.
func (n *Net) SetTrace(fn func(TraceEvent)) { n.trace = fn }

// Stats returns the cumulative traffic counters.
func (n *Net) Stats() Stats { return n.stats }

// ResetStats zeroes the traffic counters.
func (n *Net) ResetStats() { n.stats = Stats{} }

// Attach registers an endpoint at loc with an arena of arenaSize
// bytes (0 for none).
func (n *Net) Attach(name string, loc Location, arenaSize int) *Endpoint {
	e := &Endpoint{
		ID:    EndpointID(len(n.eps)),
		Name:  name,
		Loc:   loc,
		Inbox: sim.NewChan[Delivery](n.k, name+".inbox", 0),
	}
	e.arenaSize = arenaSize
	n.eps = append(n.eps, e)
	n.ensureLinks(loc.Node)
	return e
}

func (n *Net) ensureLinks(node int) {
	for len(n.links) <= node {
		n.links = append(n.links, nodeLinks{})
	}
	l := &n.links[node]
	if !l.valid {
		l.up = link{bw: n.prof.WireBW}
		l.dn = link{bw: n.prof.WireBW}
		l.loc = link{bw: n.prof.LocalBW}
		l.valid = true
	}
}

// lookup resolves an id to its endpoint, or nil if unknown.
//
//fractos:hotpath
func (n *Net) lookup(id EndpointID) *Endpoint {
	if int(id) < len(n.eps) {
		return n.eps[id] // index 0 is nil, so id 0 resolves to unknown
	}
	return nil
}

// Lookup returns the endpoint with the given id.
func (n *Net) Lookup(id EndpointID) (*Endpoint, bool) {
	e := n.lookup(id)
	return e, e != nil
}

// Disconnect severs an endpoint: subsequent sends to or from it are
// dropped. Used for failure injection.
func (n *Net) Disconnect(id EndpointID) {
	if e := n.lookup(id); e != nil {
		e.disconnected = true
	}
}

// Reconnect re-attaches a severed endpoint (e.g. a rebooted
// Controller).
func (n *Net) Reconnect(id EndpointID) {
	if e := n.lookup(id); e != nil {
		e.disconnected = false
	}
}

// account records a transfer in the counters.
//
//fractos:hotpath
func (n *Net) account(class wire.Class, bytes int, cross bool, rdma bool) {
	switch class {
	case wire.Data:
		n.stats.DataMsgs++
		n.stats.DataBytes += int64(bytes)
	default:
		n.stats.ControlMsgs++
		n.stats.ControlBytes += int64(bytes)
	}
	if cross {
		n.stats.CrossNodeMsgs++
		n.stats.CrossNodeBytes += int64(bytes)
		if class == wire.Data {
			n.stats.CrossNodeDataMsgs++
			n.stats.CrossNodeDataBytes += int64(bytes)
		} else {
			n.stats.CrossNodeCtrlMsgs++
		}
	}
	if rdma {
		n.stats.RDMAOps++
		n.stats.RDMABytes += int64(bytes)
	}
}

// transferTime computes when a payload of nBytes sent now from src to
// dst finishes arriving, accounting for link serialization.
//
//fractos:hotpath
func (n *Net) transferTime(now sim.Time, src, dst Location, nBytes int) sim.Time {
	lat := n.prof.exit(src.Domain) + n.prof.entry(dst.Domain)
	if src.Node == dst.Node {
		lat += n.prof.NICTurn
		done := n.links[src.Node].loc.reserve(now, nBytes)
		return done + lat
	}
	lat += n.prof.CrossNode
	up := n.links[src.Node].up.reserve(now, nBytes)
	down := n.links[dst.Node].dn.reserve(up, 0) // rx link rarely the bottleneck for distinct nodes
	_ = down
	return up + lat
}

// Send serializes m, charges the fabric model, and schedules delivery
// into dst's inbox. It does not block the caller (DMA semantics). It
// reports false if either endpoint is unknown or disconnected (the
// message is dropped, as on a severed channel).
//
// With the chaos layer installed (faults.go) a cross-node frame may
// additionally be lost, duplicated, or delayed — and Send still
// returns true in every one of those cases: in-flight loss is not
// observable at the sender, which is precisely what forces the
// retransmission protocols above the fabric.
//
//fractos:hotpath
func (n *Net) Send(from, to EndpointID, m wire.Message) bool {
	src := n.lookup(from)
	dst := n.lookup(to)
	if src == nil || dst == nil || src.disconnected || dst.disconnected {
		return false
	}
	// Encode into a pooled frame buffer and decode eagerly. Unmarshal
	// copies every variable-length payload, so the decoded message never
	// aliases the frame and the buffer can return to the pool before the
	// delivery is even scheduled. The delivery closure then captures only
	// the decoded message — no per-send frame allocation survives.
	w := wire.GetWriter(wire.SizeOf(m))
	wire.MarshalTo(w, m)
	frame := w.Bytes()
	nBytes := len(frame)
	decoded, derr := wire.Unmarshal(frame) // fractos:alloc-ok eager decode allocates the delivered message once per send by design
	cross := src.Loc.Node != dst.Loc.Node

	// Chaos pipeline (cross-node frames only; see faults.go for the
	// fault model and determinism rules).
	var lost bool
	var dup2 wire.Message
	var extra sim.Time
	if fs := n.faults; fs != nil && cross {
		if fs.cut(src.Loc.Node, dst.Loc.Node) {
			lost = true
			fs.stats.Cut++
		} else {
			if fs.drop > 0 && fs.rng.Float64() < fs.drop {
				lost = true
				fs.stats.Dropped++
			}
			if fs.dup > 0 && fs.rng.Float64() < fs.dup && !lost && derr == nil {
				// The duplicate is decoded independently so the two
				// deliveries never share mutable payloads.
				dup2, _ = wire.Unmarshal(frame) // fractos:alloc-ok chaos-only path: the duplicate gets its own decode
			}
			if fs.jitter > 0 {
				extra = sim.Time(fs.rng.Int63n(int64(fs.jitter)))
				if extra > 0 {
					fs.stats.Delayed++
				}
			}
		}
	}
	w.Release()
	now := n.k.Now()
	done := n.transferTime(now, src.Loc, dst.Loc, nBytes)
	n.account(m.Class(), nBytes, cross, false)
	if n.trace != nil {
		n.trace(TraceEvent{At: now, From: from, To: to, Type: m.WireType(), Bytes: nBytes, Class: m.Class(), Lost: lost})
	}
	if derr != nil || lost {
		// An undecodable frame is treated like line corruption, a lost
		// one like switch loss: the fabric accounts the bytes on the
		// wire but drops the frame instead of tearing down the
		// simulation. Upper layers already tolerate loss — pending
		// calls unwind through retransmission or the peer-failure path
		// (failure as revocation).
		return true
	}
	// fractos:alloc-ok the delivery closure is the per-send in-flight record; it captures only the decoded message
	n.k.After(done+extra-now, func() {
		if dst.disconnected {
			return
		}
		dst.Inbox.TrySend(Delivery{From: from, Msg: decoded, Bytes: nBytes})
	})
	if dup2 != nil {
		// The duplicate pays for the wire a second time and lands
		// strictly after the original (uplink serialization).
		n.faults.stats.Duplicated++
		done2 := n.transferTime(now, src.Loc, dst.Loc, nBytes)
		n.account(m.Class(), nBytes, cross, false)
		if n.trace != nil {
			n.trace(TraceEvent{At: now, From: from, To: to, Type: m.WireType(), Bytes: nBytes, Class: m.Class()})
		}
		// fractos:alloc-ok chaos-only path: the duplicate needs its own in-flight record
		n.k.After(done2+extra-now, func() {
			if dst.disconnected {
				return
			}
			dst.Inbox.TrySend(Delivery{From: from, Msg: dup2, Bytes: nBytes})
		})
	}
	return true
}

// rdmaLatency is the fixed part of a one-sided RDMA op between two
// locations: initiator NIC costs plus wire plus passive-side NIC.
func (n *Net) rdmaLatency(initiator, passive Location) sim.Time {
	if initiator.Node == passive.Node {
		// Same-node DMA (e.g. controller to a co-located process).
		return n.prof.exit(initiator.Domain) + n.prof.NICTurn + n.prof.RDMARemote
	}
	return n.prof.exit(initiator.Domain) + n.prof.CrossNode + n.prof.RDMARemote
}

// rdmaTransfer performs the byte movement and timing shared by the
// RDMA primitives, returning completion time. Data flows srcEp→dstEp.
func (n *Net) rdmaTransfer(initiator, srcEp, dstEp *Endpoint, srcOff, dstOff, nBytes int, extraRTT bool) (sim.Time, error) {
	if srcEp.disconnected || dstEp.disconnected || initiator.disconnected {
		return 0, fmt.Errorf("fabric: endpoint disconnected")
	}
	// RDMA rides a reliable transport (hardware retransmit absorbs
	// probabilistic loss) but cannot cross a cut path: a down link or
	// partition between any involved pair fails the op outright, which
	// the copy engine maps to StatusAborted.
	if fs := n.faults; fs != nil {
		if fs.cut2(initiator.Loc.Node, srcEp.Loc.Node) ||
			fs.cut2(initiator.Loc.Node, dstEp.Loc.Node) ||
			fs.cut2(srcEp.Loc.Node, dstEp.Loc.Node) {
			return 0, fmt.Errorf("fabric: path cut between nodes")
		}
	}
	if srcOff < 0 || srcOff+nBytes > srcEp.arenaSize {
		return 0, fmt.Errorf("fabric: source range [%d,%d) outside arena of %s", srcOff, srcOff+nBytes, srcEp.Name)
	}
	if dstOff < 0 || dstOff+nBytes > dstEp.arenaSize {
		return 0, fmt.Errorf("fabric: dest range [%d,%d) outside arena of %s", dstOff, dstOff+nBytes, dstEp.Name)
	}
	now := n.k.Now()
	// Request leg (reads and third-party ops pay an extra half RTT to
	// reach the data source).
	lat := n.rdmaLatency(initiator.Loc, srcEp.Loc)
	if !extraRTT {
		lat = 0
	}
	// Data leg.
	var done sim.Time
	if srcEp.Loc.Node == dstEp.Loc.Node {
		done = n.links[srcEp.Loc.Node].loc.reserve(now+lat, nBytes)
		done += n.prof.RDMARemote + n.prof.RDMARemote
	} else {
		done = n.links[srcEp.Loc.Node].up.reserve(now+lat, nBytes)
		n.links[dstEp.Loc.Node].dn.reserve(done, 0)
		done += n.prof.CrossNode + n.prof.RDMARemote + n.prof.RDMARemote
	}
	// Completion notification back to the initiator.
	done += n.prof.entry(initiator.Loc.Domain)

	if nBytes > 0 {
		copy(dstEp.arenaRange(dstOff, nBytes), srcEp.arenaRange(srcOff, nBytes))
	}
	cross := srcEp.Loc.Node != dstEp.Loc.Node
	n.account(wire.Data, nBytes, cross, true)
	if n.trace != nil {
		n.trace(TraceEvent{At: now, From: srcEp.ID, To: dstEp.ID, RDMA: true, Bytes: nBytes, Class: wire.Data})
	}
	return done, nil
}

// RDMARead starts a one-sided read of nBytes from remote's arena at
// remoteOff into initiator's arena at localOff. The returned future
// resolves at the modeled completion time.
func (n *Net) RDMARead(initiator EndpointID, localOff int, remote EndpointID, remoteOff, nBytes int) *sim.Future[int] {
	f := sim.NewFuture[int](n.k)
	ini := n.lookup(initiator)
	rem := n.lookup(remote)
	if ini == nil || rem == nil {
		f.Fail(fmt.Errorf("fabric: unknown endpoint"))
		return f
	}
	done, err := n.rdmaTransfer(ini, rem, ini, remoteOff, localOff, nBytes, true)
	if err != nil {
		f.Fail(err)
		return f
	}
	n.k.After(done-n.k.Now(), func() { f.Set(nBytes) })
	return f
}

// RDMAWrite starts a one-sided write of nBytes from initiator's arena
// at localOff into remote's arena at remoteOff.
func (n *Net) RDMAWrite(initiator EndpointID, localOff int, remote EndpointID, remoteOff, nBytes int) *sim.Future[int] {
	f := sim.NewFuture[int](n.k)
	ini := n.lookup(initiator)
	rem := n.lookup(remote)
	if ini == nil || rem == nil {
		f.Fail(fmt.Errorf("fabric: unknown endpoint"))
		return f
	}
	done, err := n.rdmaTransfer(ini, ini, rem, localOff, remoteOff, nBytes, false)
	if err != nil {
		f.Fail(err)
		return f
	}
	n.k.After(done-n.k.Now(), func() { f.Set(nBytes) })
	return f
}

// RDMACopy is a third-party transfer: the initiator commands src's NIC
// to move bytes directly into dst's arena ("HW copies" in Figure 5 —
// hardware support the paper models but the testbed NICs lack).
func (n *Net) RDMACopy(initiator EndpointID, src EndpointID, srcOff int, dst EndpointID, dstOff, nBytes int) *sim.Future[int] {
	f := sim.NewFuture[int](n.k)
	ini := n.lookup(initiator)
	se := n.lookup(src)
	de := n.lookup(dst)
	if ini == nil || se == nil || de == nil {
		f.Fail(fmt.Errorf("fabric: unknown endpoint"))
		return f
	}
	done, err := n.rdmaTransfer(ini, se, de, srcOff, dstOff, nBytes, true)
	if err != nil {
		f.Fail(err)
		return f
	}
	n.k.After(done-n.k.Now(), func() { f.Set(nBytes) })
	return f
}
