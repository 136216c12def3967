// Package wire defines the FractOS on-wire protocol: a compact binary
// codec and the message set exchanged between Processes, Controllers,
// and the bootstrap services.
//
// Every message that crosses the fabric is really encoded to bytes and
// decoded at the receiver; the encoded length is what the fabric
// charges against link bandwidth and what the traffic-accounting
// experiments count. This keeps the reproduction honest: the paper's
// network-message and byte reductions fall out of actual serialized
// traffic, not hand-written constants.
//
// Each message describes its body once, in a Layout method that lists
// its fields in wire order through pointers. A Codec runs that method
// in either direction, so encoder and decoder cannot drift apart.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"fractos/internal/assert"
)

// ErrShort is returned when decoding runs past the end of the buffer.
var ErrShort = errors.New("wire: short buffer")

// ErrUnknownType is returned when unmarshalling an unregistered type.
var ErrUnknownType = errors.New("wire: unknown message type")

// Codec runs a message's Layout in one of two directions. Encoding
// appends each field, little-endian, to buf. Decoding reads each field
// from buf at off and stores it through the field's pointer. Decode
// errors are sticky: after the first short read every further read
// leaves its field untouched and the frame fails with ErrShort.
type Codec struct {
	buf      []byte
	off      int
	err      error
	decoding bool
}

// codecPool recycles Codecs and their encode buffers. Encoded bytes
// never depend on which Codec the pool hands out: Encode truncates the
// buffer and rewrites it in full before anyone reads it. Only buffer
// identity varies, and nothing in the simulation observes identity.
var codecPool = sync.Pool{New: func() interface{} { return new(Codec) }}

// maxPooledBuf bounds the capacity retained by the pool so a rare
// giant frame does not pin memory forever.
const maxPooledBuf = 1 << 20

// GetCodec returns a pooled Codec. The caller must Release it when
// done with every frame it encoded.
//
//fractos:hotpath
//fractos:pool-acquire wirecodec
func GetCodec() *Codec { return codecPool.Get().(*Codec) }

// Release returns the Codec (and its buffer) to the pool. The caller
// must not retain c or any frame Encode returned afterwards.
//
//fractos:hotpath
//fractos:pool-release wirecodec
func (c *Codec) Release() {
	if cap(c.buf) > maxPooledBuf {
		c.buf = nil
	}
	codecPool.Put(c)
}

// Encode encodes m with its 2-byte type header into c's buffer and
// returns the frame. The frame is borrowed from c: it stays valid
// until c encodes again or is released. Once the pooled buffer has
// grown to the frame's size, encoding allocates nothing.
//
//fractos:hotpath
func (c *Codec) Encode(m Message) []byte {
	c.buf, c.decoding = c.buf[:0], false
	t := uint16(m.WireType())
	c.U16(&t)
	m.Layout(c)
	return c.buf
}

// Decode decodes the framed message in b, which may be the frame c
// itself just encoded. Every variable-length payload is copied, so the
// returned message never aliases b and b may be reused immediately.
// The allocations are the message struct, its lists and those payload
// copies.
func (c *Codec) Decode(b []byte) (Message, error) {
	own := c.buf
	c.buf, c.off, c.err, c.decoding = b, 0, nil, true
	m, err := c.decodeFrame()
	c.buf, c.decoding = own, false
	return m, err
}

func (c *Codec) decodeFrame() (Message, error) {
	var t uint16
	c.U16(&t)
	if c.err != nil {
		return nil, c.err
	}
	fn, ok := registry[Type(t)]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	m := fn()
	m.Layout(c)
	if c.err != nil {
		return nil, c.err
	}
	return m, nil
}

//fractos:hotpath
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.err = ErrShort
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 lays out one byte.
//
//fractos:hotpath
func (c *Codec) U8(v *uint8) {
	if !c.decoding {
		c.buf = append(c.buf, *v) // fractos:alloc-ok amortized growth of the pooled buffer; steady-state encodes reuse its capacity
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U16 lays out a little-endian uint16.
//
//fractos:hotpath
func (c *Codec) U16(v *uint16) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

// U32 lays out a little-endian uint32.
//
//fractos:hotpath
func (c *Codec) U32(v *uint32) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 lays out a little-endian uint64.
//
//fractos:hotpath
func (c *Codec) U64(v *uint64) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// Bool lays out a boolean as one byte; any non-zero byte decodes true.
//
//fractos:hotpath
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.decoding {
		*v = b != 0
	}
}

// Bytes32 lays out a uint32-length-prefixed byte slice. Decoding
// checks the length against the bytes left before allocating, and
// copies the payload so the message never aliases the frame.
//
//fractos:hotpath
func (c *Codec) Bytes32(v *[]byte) {
	n := uint32(len(*v))
	c.U32(&n)
	if !c.decoding {
		c.buf = append(c.buf, *v...) // fractos:alloc-ok amortized growth of the pooled buffer; steady-state encodes reuse its capacity
		return
	}
	if c.err == nil && uint64(n) > uint64(len(c.buf)-c.off) {
		c.err = ErrShort
	}
	if b := c.take(int(n)); b != nil {
		*v = make([]byte, n) // fractos:alloc-ok decode-side payload copy: decoded messages never alias the frame
		copy(*v, b)
	}
}

// list lays out a uint16-counted slice, running elem on each entry.
// Decoding leaves an empty list nil, and rejects a count larger than
// the bytes left before allocating (every entry takes at least one).
func list[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := uint16(len(*s))
	c.U16(&n)
	if c.decoding {
		if c.err == nil && int(n) > len(c.buf)-c.off {
			c.err = ErrShort
		}
		if n == 0 || c.err != nil {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Type identifies a message's concrete kind on the wire.
type Type uint16

// Class tags a message for traffic accounting: control-plane messages
// versus bulk data transfers (Figure 2's two arrow kinds).
type Class uint8

const (
	// Control marks small control-plane messages (syscalls, acks,
	// invocations, capability operations).
	Control Class = iota
	// Data marks bulk data transfers (memory copies, storage blocks,
	// argument payloads beyond a trivial size).
	Data
)

// Message is any FractOS protocol message.
type Message interface {
	// WireType identifies the concrete message on the wire.
	WireType() Type
	// Class tags the message for traffic accounting.
	Class() Class
	// Layout lists the message body (everything after the type
	// header) to c, field by field in wire order. The one method
	// both encodes and decodes.
	Layout(c *Codec)
}

var registry = map[Type]func() Message{}

// Register installs a constructor for a message type. Duplicate
// registration is a programming error caught at init time.
func Register(t Type, fn func() Message) {
	_, dup := registry[t]
	assert.That(!dup, "wire: duplicate registration of type %d", t)
	registry[t] = fn
}

// Marshal encodes a message with its type header into a new buffer of
// exactly the frame's size. The frame is built in a pooled Codec and
// copied out, so Marshal makes a single allocation; the AllocsPerRun
// gate in bench_test.go pins that.
//
//fractos:hotpath
func Marshal(m Message) []byte {
	c := GetCodec()
	frame := c.Encode(m)
	out := make([]byte, len(frame)) // fractos:alloc-ok the single exact-size allocation Marshal exists to make
	copy(out, frame)
	c.Release()
	return out
}

// Unmarshal decodes a framed message produced by Marshal, through a
// pooled Codec. The only allocations are those of Codec.Decode: a
// Completion, with no lists or payloads, costs one.
func Unmarshal(b []byte) (Message, error) {
	c := GetCodec()
	m, err := c.Decode(b)
	c.Release()
	return m, err
}
