package wire

import "fractos/internal/cap"

// Message type identifiers. Grouped by direction:
// 1xx Process→Controller (syscalls), 2xx Controller→Process,
// 3xx Controller↔Controller, 9xx generic/raw.
const (
	TMemCreate Type = 100 + iota
	TMemDiminish
	TMemCopy
	TReqCreate
	TReqInvoke
	TCapRevtree
	TCapRevoke
	TCapDrop
	TMonitorDelegate
	TMonitorReceive
	TDeliverDone
	TProcBye
	TNull
)

const (
	TCompletion Type = 200 + iota
	TDeliver
	TMonitorCB
)

const (
	TCtrlDeriveMem Type = 300 + iota
	TCtrlDeriveReq
	TCtrlRevtree
	TCtrlRevoke
	TCtrlValidate
	TCtrlValInfo
	TCtrlInvoke
	TCtrlAck
	TCtrlCleanup
	TCtrlDelegNote
	TCtrlDelegNoteAck
	TCtrlWatch
	TCtrlNotify
	TCtrlEpoch
)

// 4xx: the node-monitoring service's heartbeat protocol (§3.6's
// external monitor, upgraded from an explicitly driven stub to a
// probe-based failure detector in docs/FAULTS.md).
const (
	TWatchPing Type = 400 + iota
	TWatchPong
)

// TRaw is a free-form message used by the baseline systems (rCUDA,
// NFS, NVMe-oF models) that share the fabric but not the FractOS
// protocol.
const TRaw Type = 900

func init() {
	Register(TMemCreate, func() Message { return new(MemCreate) })
	Register(TMemDiminish, func() Message { return new(MemDiminish) })
	Register(TMemCopy, func() Message { return new(MemCopy) })
	Register(TReqCreate, func() Message { return new(ReqCreate) })
	Register(TReqInvoke, func() Message { return new(ReqInvoke) })
	Register(TCapRevtree, func() Message { return new(CapRevtree) })
	Register(TCapRevoke, func() Message { return new(CapRevoke) })
	Register(TCapDrop, func() Message { return new(CapDrop) })
	Register(TMonitorDelegate, func() Message { return new(MonitorDelegate) })
	Register(TMonitorReceive, func() Message { return new(MonitorReceive) })
	Register(TDeliverDone, func() Message { return new(DeliverDone) })
	Register(TProcBye, func() Message { return new(ProcBye) })
	Register(TNull, func() Message { return new(Null) })
	Register(TCompletion, func() Message { return new(Completion) })
	Register(TDeliver, func() Message { return new(Deliver) })
	Register(TMonitorCB, func() Message { return new(MonitorCB) })
	Register(TCtrlDeriveMem, func() Message { return new(CtrlDeriveMem) })
	Register(TCtrlDeriveReq, func() Message { return new(CtrlDeriveReq) })
	Register(TCtrlRevtree, func() Message { return new(CtrlRevtree) })
	Register(TCtrlRevoke, func() Message { return new(CtrlRevoke) })
	Register(TCtrlValidate, func() Message { return new(CtrlValidate) })
	Register(TCtrlValInfo, func() Message { return new(CtrlValInfo) })
	Register(TCtrlInvoke, func() Message { return new(CtrlInvoke) })
	Register(TCtrlAck, func() Message { return new(CtrlAck) })
	Register(TCtrlCleanup, func() Message { return new(CtrlCleanup) })
	Register(TCtrlDelegNote, func() Message { return new(CtrlDelegNote) })
	Register(TCtrlDelegNoteAck, func() Message { return new(CtrlDelegNoteAck) })
	Register(TCtrlWatch, func() Message { return new(CtrlWatch) })
	Register(TCtrlNotify, func() Message { return new(CtrlNotify) })
	Register(TCtrlEpoch, func() Message { return new(CtrlEpoch) })
	Register(TWatchPing, func() Message { return new(WatchPing) })
	Register(TWatchPong, func() Message { return new(WatchPong) })
	Register(TRaw, func() Message { return new(Raw) })
}

// ---- shared argument layouts ----

// ImmArg writes Data into a Request's immediate-argument buffer at
// Offset. Once written, those bytes are immutable (§3.4).
type ImmArg struct {
	Offset uint32
	Data   []byte
}

func layoutImm(c *Codec, a *ImmArg) {
	c.U32(&a.Offset)
	c.Bytes32(&a.Data)
}

// immsClass classifies a message by the payload volume its immediate
// args carry: above dataThreshold bytes it counts as a Data transfer.
func immsClass(imms []ImmArg) Class {
	n := 0
	for _, a := range imms {
		n += len(a.Data)
	}
	return bytesClass(n)
}

// bytesClass classifies a message carrying n payload bytes.
func bytesClass(n int) Class {
	if n > dataThreshold {
		return Data
	}
	return Control
}

// dataThreshold is the immediate-payload size above which a message
// counts as a Data transfer for traffic accounting.
const dataThreshold = 256

// CapSlot binds a Process-local capability (cid) to a Request argument
// slot in a syscall.
type CapSlot struct {
	Slot uint16
	Cid  cap.CapID
}

func layoutCapSlot(c *Codec, s *CapSlot) {
	c.U16(&s.Slot)
	c.U32((*uint32)(&s.Cid))
}

// CapXfer is a capability in transit between Controllers: the global
// reference plus the rights and metadata the receiver should install.
type CapXfer struct {
	Slot      uint16
	Ref       cap.Ref
	Kind      cap.Kind
	Rights    cap.Rights
	Size      uint64
	Monitored bool
	// Leased marks a monitor_delegatee child created for the receiver;
	// the receiving Controller revokes it if the receiver fails.
	Leased bool
}

// layoutRef lays out a global reference: Ctrl u32, Obj u64, Epoch u32.
func layoutRef(c *Codec, r *cap.Ref) {
	c.U32((*uint32)(&r.Ctrl))
	c.U64((*uint64)(&r.Obj))
	c.U32((*uint32)(&r.Epoch))
}

func layoutCapXfer(c *Codec, x *CapXfer) {
	c.U16(&x.Slot)
	layoutRef(c, &x.Ref)
	c.U8((*uint8)(&x.Kind))
	c.U8((*uint8)(&x.Rights))
	c.U64(&x.Size)
	c.Bool(&x.Monitored)
	c.Bool(&x.Leased)
}

// DeliveredCap is a capability as it appears in a request_receive
// descriptor: already installed in the receiver's capability space.
type DeliveredCap struct {
	Slot   uint16
	Cid    cap.CapID
	Kind   cap.Kind
	Rights cap.Rights
	Size   uint64
}

func layoutDelivered(c *Codec, d *DeliveredCap) {
	c.U16(&d.Slot)
	c.U32((*uint32)(&d.Cid))
	c.U8((*uint8)(&d.Kind))
	c.U8((*uint8)(&d.Rights))
	c.U64(&d.Size)
}

// ---- Process → Controller (syscalls, Table 1) ----

// MemCreate registers [Base, Base+Size) of the calling Process's
// arena as a Memory object (memory_create).
type MemCreate struct {
	Token uint64
	Base  uint64
	Size  uint64
	Perms cap.Rights
}

func (*MemCreate) WireType() Type { return TMemCreate }
func (*MemCreate) Class() Class   { return Control }
func (m *MemCreate) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U64(&m.Base)
	c.U64(&m.Size)
	c.U8((*uint8)(&m.Perms))
}

// MemDiminish derives a smaller/weaker view of a Memory capability
// (memory_diminish).
type MemDiminish struct {
	Token  uint64
	Cid    cap.CapID
	Offset uint64
	Size   uint64
	Drop   cap.Rights
}

func (*MemDiminish) WireType() Type { return TMemDiminish }
func (*MemDiminish) Class() Class   { return Control }
func (m *MemDiminish) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
	c.U64(&m.Offset)
	c.U64(&m.Size)
	c.U8((*uint8)(&m.Drop))
}

// MemCopy copies all bytes of Memory SrcCid into DstCid (memory_copy).
type MemCopy struct {
	Token  uint64
	SrcCid cap.CapID
	DstCid cap.CapID
}

func (*MemCopy) WireType() Type { return TMemCopy }
func (*MemCopy) Class() Class   { return Control }
func (m *MemCopy) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.SrcCid))
	c.U32((*uint32)(&m.DstCid))
}

// ReqCreate creates a new Request (Parent == NilCap) provided by the
// caller, or derives/refines an existing one (request_create). Tag is
// delivered back to the provider on every invocation of the request
// (and its derivations) so services can dispatch; it is only
// meaningful for new Requests.
type ReqCreate struct {
	Token  uint64
	Parent cap.CapID
	Tag    uint64
	Imms   []ImmArg
	Caps   []CapSlot
}

func (*ReqCreate) WireType() Type { return TReqCreate }
func (m *ReqCreate) Class() Class { return immsClass(m.Imms) }
func (m *ReqCreate) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Parent))
	c.U64(&m.Tag)
	list(c, &m.Imms, layoutImm)
	list(c, &m.Caps, layoutCapSlot)
}

// ReqInvoke invokes a Request (request_invoke). Imms/Caps are
// invoke-time refinements applied on top of the Request's preset
// arguments without mutating the Request object itself.
type ReqInvoke struct {
	Token uint64
	Cid   cap.CapID
	Imms  []ImmArg
	Caps  []CapSlot
}

func (*ReqInvoke) WireType() Type { return TReqInvoke }
func (m *ReqInvoke) Class() Class { return immsClass(m.Imms) }
func (m *ReqInvoke) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
	list(c, &m.Imms, layoutImm)
	list(c, &m.Caps, layoutCapSlot)
}

// CapRevtree creates a new revocation subtree entry for a capability
// (cap_create_revtree): a separately revocable child object.
type CapRevtree struct {
	Token uint64
	Cid   cap.CapID
}

func (*CapRevtree) WireType() Type { return TCapRevtree }
func (*CapRevtree) Class() Class   { return Control }
func (m *CapRevtree) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
}

// CapRevoke revokes a capability: the referenced object and all its
// revocation-tree descendants are invalidated at the owner
// (cap_revoke).
type CapRevoke struct {
	Token uint64
	Cid   cap.CapID
}

func (*CapRevoke) WireType() Type { return TCapRevoke }
func (*CapRevoke) Class() Class   { return Control }
func (m *CapRevoke) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
}

// CapDrop discards the calling Process's capability-space entry
// without revoking the object.
type CapDrop struct {
	Token uint64
	Cid   cap.CapID
}

func (*CapDrop) WireType() Type { return TCapDrop }
func (*CapDrop) Class() Class   { return Control }
func (m *CapDrop) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
}

// MonitorDelegate registers a callback that fires when all immediate
// children delegated from Cid have been invalidated (§3.6).
type MonitorDelegate struct {
	Token    uint64
	Cid      cap.CapID
	Callback uint64
}

func (*MonitorDelegate) WireType() Type { return TMonitorDelegate }
func (*MonitorDelegate) Class() Class   { return Control }
func (m *MonitorDelegate) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
	c.U64(&m.Callback)
}

// MonitorReceive registers a callback that fires when Cid's object is
// invalidated — by explicit revocation or by failure (§3.6).
type MonitorReceive struct {
	Token    uint64
	Cid      cap.CapID
	Callback uint64
}

func (*MonitorReceive) WireType() Type { return TMonitorReceive }
func (*MonitorReceive) Class() Class   { return Control }
func (m *MonitorReceive) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Cid))
	c.U64(&m.Callback)
}

// DeliverDone acknowledges processing of a delivery, releasing one
// slot of the provider's congestion-control window (§4).
type DeliverDone struct {
	Seq uint64
}

func (*DeliverDone) WireType() Type    { return TDeliverDone }
func (*DeliverDone) Class() Class      { return Control }
func (m *DeliverDone) Layout(c *Codec) { c.U64(&m.Seq) }

// Null is the no-op syscall used to measure the bare cost of one
// FractOS operation (Table 3).
type Null struct {
	Token uint64
}

func (*Null) WireType() Type    { return TNull }
func (*Null) Class() Class      { return Control }
func (m *Null) Layout(c *Codec) { c.U64(&m.Token) }

// ProcBye announces a graceful Process exit.
type ProcBye struct{}

func (*ProcBye) WireType() Type { return TProcBye }
func (*ProcBye) Class() Class   { return Control }
func (*ProcBye) Layout(*Codec)  {}

// ---- Controller → Process ----

// Completion resolves an asynchronous syscall. Cid carries the newly
// created capability for create/derive calls; Aux is call-specific
// (e.g. bytes copied).
type Completion struct {
	Token  uint64
	Status Status
	Cid    cap.CapID
	Aux    uint64
}

func (*Completion) WireType() Type { return TCompletion }
func (*Completion) Class() Class   { return Control }
func (m *Completion) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U8((*uint8)(&m.Status))
	c.U32((*uint32)(&m.Cid))
	c.U64(&m.Aux)
}

// Deliver is a request_receive descriptor: an invocation arriving at a
// provider Process. Imms is the merged immediate-argument buffer; Caps
// are the delegated capability arguments, already installed in the
// provider's capability space.
type Deliver struct {
	Seq  uint64
	Tag  uint64
	Imms []byte
	Caps []DeliveredCap
}

func (*Deliver) WireType() Type { return TDeliver }
func (m *Deliver) Class() Class { return bytesClass(len(m.Imms)) }
func (m *Deliver) Layout(c *Codec) {
	c.U64(&m.Seq)
	c.U64(&m.Tag)
	c.Bytes32(&m.Imms)
	list(c, &m.Caps, layoutDelivered)
}

// MonitorCB delivers a monitor callback to the Process that registered
// it. Kind 0 = delegate (children gone), 1 = receive (object revoked).
type MonitorCB struct {
	Callback uint64
	Kind     uint8
}

// Monitor callback kinds.
const (
	MonitorCBDelegate uint8 = 0
	MonitorCBReceive  uint8 = 1
)

func (*MonitorCB) WireType() Type { return TMonitorCB }
func (*MonitorCB) Class() Class   { return Control }
func (m *MonitorCB) Layout(c *Codec) {
	c.U64(&m.Callback)
	c.U8(&m.Kind)
}

// ---- Controller ↔ Controller ----

// CtrlDeriveMem asks the owner to derive a diminished Memory object.
type CtrlDeriveMem struct {
	Token  uint64
	Src    cap.ControllerID
	From   cap.Ref
	Offset uint64
	Size   uint64
	Drop   cap.Rights
}

func (*CtrlDeriveMem) WireType() Type { return TCtrlDeriveMem }
func (*CtrlDeriveMem) Class() Class   { return Control }
func (m *CtrlDeriveMem) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.From)
	c.U64(&m.Offset)
	c.U64(&m.Size)
	c.U8((*uint8)(&m.Drop))
}

// CtrlDeriveReq asks the owner to derive a refined Request object.
type CtrlDeriveReq struct {
	Token uint64
	Src   cap.ControllerID
	From  cap.Ref
	Imms  []ImmArg
	Caps  []CapXfer
}

func (*CtrlDeriveReq) WireType() Type { return TCtrlDeriveReq }
func (m *CtrlDeriveReq) Class() Class { return immsClass(m.Imms) }
func (m *CtrlDeriveReq) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.From)
	list(c, &m.Imms, layoutImm)
	list(c, &m.Caps, layoutCapXfer)
}

// CtrlRevtree asks the owner to create a revocation-subtree child.
type CtrlRevtree struct {
	Token uint64
	Src   cap.ControllerID
	From  cap.Ref
}

func (*CtrlRevtree) WireType() Type { return TCtrlRevtree }
func (*CtrlRevtree) Class() Class   { return Control }
func (m *CtrlRevtree) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.From)
}

// CtrlRevoke asks the owner to invalidate an object (and subtree).
type CtrlRevoke struct {
	Token uint64
	Src   cap.ControllerID
	From  cap.Ref
}

func (*CtrlRevoke) WireType() Type { return TCtrlRevoke }
func (*CtrlRevoke) Class() Class   { return Control }
func (m *CtrlRevoke) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.From)
}

// CtrlValidate asks the owner whether Ref is live and conveys Need;
// for Memory objects the answer locates the backing buffer for RDMA.
type CtrlValidate struct {
	Token uint64
	Src   cap.ControllerID
	Ref   cap.Ref
	Need  cap.Rights
}

func (*CtrlValidate) WireType() Type { return TCtrlValidate }
func (*CtrlValidate) Class() Class   { return Control }
func (m *CtrlValidate) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.Ref)
	c.U8((*uint8)(&m.Need))
}

// CtrlValInfo answers a CtrlValidate: where the Memory object's bytes
// live (fabric endpoint + offset) and its authoritative extent/rights.
type CtrlValInfo struct {
	Token    uint64
	Status   Status
	Endpoint uint32 // fabric endpoint owning the arena
	Base     uint64 // offset within that arena
	Size     uint64
	Rights   cap.Rights
}

func (*CtrlValInfo) WireType() Type { return TCtrlValInfo }
func (*CtrlValInfo) Class() Class   { return Control }
func (m *CtrlValInfo) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U8((*uint8)(&m.Status))
	c.U32(&m.Endpoint)
	c.U64(&m.Base)
	c.U64(&m.Size)
	c.U8((*uint8)(&m.Rights))
}

// CtrlInvoke carries a request invocation to the owner of the Request
// object, with invoke-time refinements and delegated capabilities.
type CtrlInvoke struct {
	Token uint64
	Src   cap.ControllerID
	Ref   cap.Ref
	Imms  []ImmArg
	Caps  []CapXfer
}

func (*CtrlInvoke) WireType() Type { return TCtrlInvoke }
func (m *CtrlInvoke) Class() Class { return immsClass(m.Imms) }
func (m *CtrlInvoke) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.Ref)
	list(c, &m.Imms, layoutImm)
	list(c, &m.Caps, layoutCapXfer)
}

// CtrlAck answers derive/revtree/revoke/invoke requests. Obj/Epoch
// name a newly created object where applicable; Size/Rights echo its
// metadata so the requesting Controller can install a cap entry.
type CtrlAck struct {
	Token  uint64
	Status Status
	Obj    cap.ObjectID
	Epoch  cap.Epoch
	Size   uint64
	Rights cap.Rights
}

func (*CtrlAck) WireType() Type { return TCtrlAck }
func (*CtrlAck) Class() Class   { return Control }
func (m *CtrlAck) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U8((*uint8)(&m.Status))
	c.U64((*uint64)(&m.Obj))
	c.U32((*uint32)(&m.Epoch))
	c.U64(&m.Size)
	c.U8((*uint8)(&m.Rights))
}

// CtrlCleanup is the asynchronous revocation-cleanup broadcast: every
// Controller purges capability-space entries referencing the revoked
// objects and acknowledges (§3.5; off the critical path — the owner
// keeps only small revoked stubs until every peer has confirmed no
// capabilities reference them).
type CtrlCleanup struct {
	Token uint64
	Refs  []cap.Ref
}

func (*CtrlCleanup) WireType() Type { return TCtrlCleanup }
func (*CtrlCleanup) Class() Class   { return Control }
func (m *CtrlCleanup) Layout(c *Codec) {
	c.U64(&m.Token)
	list(c, &m.Refs, layoutRef)
}

// CtrlDelegNote tells the owner that a monitored capability was
// delegated to Holder; the owner creates a monitor_delegatee child.
type CtrlDelegNote struct {
	Token  uint64
	Src    cap.ControllerID
	Ref    cap.Ref
	Holder cap.ProcID
}

func (*CtrlDelegNote) WireType() Type { return TCtrlDelegNote }
func (*CtrlDelegNote) Class() Class   { return Control }
func (m *CtrlDelegNote) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.Ref)
	c.U64((*uint64)(&m.Holder))
}

// CtrlDelegNoteAck returns the delegatee child object the holder's
// entry should reference.
type CtrlDelegNoteAck struct {
	Token  uint64
	Status Status
	Child  cap.Ref
}

func (*CtrlDelegNoteAck) WireType() Type { return TCtrlDelegNoteAck }
func (*CtrlDelegNoteAck) Class() Class   { return Control }
func (m *CtrlDelegNoteAck) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U8((*uint8)(&m.Status))
	layoutRef(c, &m.Child)
}

// CtrlWatch registers a monitor_receive watcher at the owner.
type CtrlWatch struct {
	Token       uint64
	Src         cap.ControllerID
	Ref         cap.Ref
	WatcherProc cap.ProcID
	WatcherCtrl cap.ControllerID
	Callback    uint64
}

func (*CtrlWatch) WireType() Type { return TCtrlWatch }
func (*CtrlWatch) Class() Class   { return Control }
func (m *CtrlWatch) Layout(c *Codec) {
	c.U64(&m.Token)
	c.U32((*uint32)(&m.Src))
	layoutRef(c, &m.Ref)
	c.U64((*uint64)(&m.WatcherProc))
	c.U32((*uint32)(&m.WatcherCtrl))
	c.U64(&m.Callback)
}

// CtrlNotify forwards a monitor callback to the Controller managing
// the watching Process.
type CtrlNotify struct {
	Proc     cap.ProcID
	Callback uint64
	Kind     uint8
}

func (*CtrlNotify) WireType() Type { return TCtrlNotify }
func (*CtrlNotify) Class() Class   { return Control }
func (m *CtrlNotify) Layout(c *Codec) {
	c.U64((*uint64)(&m.Proc))
	c.U64(&m.Callback)
	c.U8(&m.Kind)
}

// CtrlEpoch announces a Controller's current epoch (rebroadcast by the
// node-monitoring service after reboots).
type CtrlEpoch struct {
	Ctrl  cap.ControllerID
	Epoch cap.Epoch
}

func (*CtrlEpoch) WireType() Type { return TCtrlEpoch }
func (*CtrlEpoch) Class() Class   { return Control }
func (m *CtrlEpoch) Layout(c *Codec) {
	c.U32((*uint32)(&m.Ctrl))
	c.U32((*uint32)(&m.Epoch))
}

// ---- node monitoring (4xx) ----

// WatchPing is a heartbeat probe from the node-monitoring service to a
// Controller. Seq identifies the probe round so late pongs are not
// mistaken for current ones.
type WatchPing struct {
	Seq uint64
}

func (*WatchPing) WireType() Type    { return TWatchPing }
func (*WatchPing) Class() Class      { return Control }
func (m *WatchPing) Layout(c *Codec) { c.U64(&m.Seq) }

// WatchPong answers a WatchPing with the Controller's identity and
// current epoch, so the monitor can piggyback epoch discovery on
// liveness probing.
type WatchPong struct {
	Seq   uint64
	Ctrl  cap.ControllerID
	Epoch cap.Epoch
}

func (*WatchPong) WireType() Type { return TWatchPong }
func (*WatchPong) Class() Class   { return Control }
func (m *WatchPong) Layout(c *Codec) {
	c.U64(&m.Seq)
	c.U32((*uint32)(&m.Ctrl))
	c.U32((*uint32)(&m.Epoch))
}

// ---- generic ----

// Raw is a free-form message for non-FractOS protocols sharing the
// fabric (the baseline systems). Kind is protocol-specific; IsData
// classifies the message for traffic accounting.
type Raw struct {
	Kind   uint32
	Token  uint64
	IsData bool
	Data   []byte
}

func (*Raw) WireType() Type { return TRaw }
func (m *Raw) Class() Class {
	if m.IsData {
		return Data
	}
	return Control
}
func (m *Raw) Layout(c *Codec) {
	c.U32(&m.Kind)
	c.U64(&m.Token)
	c.Bool(&m.IsData)
	c.Bytes32(&m.Data)
}
