package wire

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// A Coder is the cursor a layout function walks its fields against. It
// runs in one of four modes: counting adds up the bytes the fields would
// take, appending writes them, reading parses them back into the fields,
// and checking is reading with nothing kept — it accepts or refuses the
// input exactly as reading would, but builds no string and walks a list's
// elements through one scratch element (Hold runs it). A layout therefore
// describes a type once — the same calls, in the same order, size it,
// encode it, decode it and check it.
//
// Reading is bounds-checked: the first failure latches, and every later
// read is a cheap no-op that leaves its field at the zero value, so a
// layout reads straight-line without per-field error plumbing. Counting
// and appending never stop early; the one error they can meet, an
// unregistered nested value, is latched and contributes no bytes. They
// also never store through a field pointer: a message in flight is shared
// by every node it was sent to, and sizing it must stay a pure read.
type Coder struct {
	mode mode
	// signing marks the appending walk of SigningBytes while it is in the
	// signed message's own fields, not in a frame nested inside them.
	signing bool
	n       int    // counting: bytes so far
	buf     []byte // appending: the output; reading and checking: the input
	off     int    // reading and checking: cursor into buf
	err     error
}

type mode uint8

const (
	counting mode = iota
	appending
	reading
	checking
)

// Reading reports whether the walk is decoding, or checking what it would
// decode. A layout asks when a step only makes sense in one direction:
// allocating the value a pointer type decodes into, or validating what was
// just read. A checking walk decodes its fields into scratch values, so a
// validation that reads one element sees it; one that compares elements
// compares what the walk returns of them instead (String's bytes), since
// the scratch element holds only the last.
func (c *Coder) Reading() bool { return c.mode >= reading }

// Signing reports whether the walk is SigningBytes, in the signed message's
// own fields. A layout asks before a field its signature covers some other
// way, such as a proposal's payload, which the signed digest binds; a
// signature field says so with Sig instead.
func (c *Coder) Signing() bool { return c.signing }

// Fail latches a decode error at the cursor; what names the thing that was
// truncated or invalid.
func (c *Coder) Fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: truncated or invalid %s at offset %d", what, c.off)
	}
}

// take returns the next n input bytes, or nil after latching a failure.
func (c *Coder) take(n int, what string) []byte {
	if c.err != nil || len(c.buf)-c.off < n {
		c.Fail(what)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 walks one byte.
func (c *Coder) U8(p *byte) {
	switch c.mode {
	case counting:
		c.n++
	case appending:
		c.buf = append(c.buf, *p)
	default:
		if b := c.take(1, "byte"); b != nil {
			*p = b[0]
		}
	}
}

// Bool walks a one-byte flag: 1 or 0 on the wire, any non-zero byte reads
// as true.
func (c *Coder) Bool(p *bool) {
	var b byte
	if *p {
		b = 1
	}
	c.U8(&b)
	if c.Reading() {
		*p = b != 0
	}
}

func (c *Coder) u16(p *uint16) {
	switch c.mode {
	case counting:
		c.n += 2
	case appending:
		c.buf = binary.BigEndian.AppendUint16(c.buf, *p)
	default:
		if b := c.take(2, "type tag"); b != nil {
			*p = binary.BigEndian.Uint16(b)
		}
	}
}

// U32 walks a fixed-width big-endian 32-bit integer.
func (c *Coder) U32(p *uint32) {
	switch c.mode {
	case counting:
		c.n += 4
	case appending:
		c.buf = binary.BigEndian.AppendUint32(c.buf, *p)
	default:
		if b := c.take(4, "u32"); b != nil {
			*p = binary.BigEndian.Uint32(b)
		}
	}
}

// U64 walks a fixed-width big-endian 64-bit integer.
func (c *Coder) U64(p *uint64) {
	switch c.mode {
	case counting:
		c.n += 8
	case appending:
		c.buf = binary.BigEndian.AppendUint64(c.buf, *p)
	default:
		if b := c.take(8, "u64"); b != nil {
			*p = binary.BigEndian.Uint64(b)
		}
	}
}

// Int walks an int carried as four bytes of two's complement.
func (c *Coder) Int(p *int) {
	v := uint32(int32(*p))
	c.U32(&v)
	if c.Reading() {
		*p = int(int32(v))
	}
}

// ID walks a node identifier (any int32-based type) as four bytes of two's
// complement.
func ID[T ~int32](c *Coder, p *T) {
	v := uint32(*p)
	c.U32(&v)
	if c.Reading() {
		*p = T(int32(v))
	}
}

// F64 walks a float64 as its IEEE-754 bits.
func (c *Coder) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	if c.Reading() {
		*p = math.Float64frombits(v)
	}
}

// Hash walks a 32-byte digest, with no length prefix.
func Hash[T ~[32]byte](c *Coder, p *T) {
	switch c.mode {
	case counting:
		c.n += len(*p)
	case appending:
		c.buf = append(c.buf, (*p)[:]...)
	default:
		copy((*p)[:], c.take(len(*p), "digest"))
	}
}

// Len walks an element count — the u32 prefix of a slice, a map or a
// string — and returns it: n itself when counting or appending, the decoded
// count when reading. A decoded count is validated against the bytes left,
// on the assumption that every element takes at least min of them, so a
// hostile prefix can never drive a large allocation.
func (c *Coder) Len(n, min int) int {
	v := uint32(n)
	c.U32(&v)
	if !c.Reading() {
		return n
	}
	if c.err != nil {
		return 0
	}
	n = int(v)
	if n < 0 || (min > 0 && n > (len(c.buf)-c.off)/min) {
		c.Fail("count")
		return 0
	}
	return n
}

// Bytes walks a length-prefixed byte slice. An empty slice decodes as nil;
// any other decodes as a slice of the input itself, not a copy (see the
// package comment for who must then leave the input alone), with its
// capacity clipped to its length so that appending to it reallocates
// instead of writing into the field that follows.
func (c *Coder) Bytes(p *[]byte) {
	n := c.Len(len(*p), 1)
	switch c.mode {
	case counting:
		c.n += n
	case appending:
		c.buf = append(c.buf, *p...)
	default:
		*p = nil
		if n > 0 {
			*p = slices.Clip(c.take(n, "bytes"))
		}
	}
}

// Sig walks a signature field: Bytes, except that SigningBytes leaves it
// out, so a signature covers neither itself nor one its message relays.
func (c *Coder) Sig(p *[]byte) {
	if !c.signing {
		c.Bytes(p)
	}
}

// String walks a length-prefixed string. Reading and checking also return
// the string's bytes, a slice of the input, so a check that compares
// strings can compare what checking builds no string from (a block's name
// order); counting and appending return nil.
func (c *Coder) String(p *string) []byte {
	n := c.Len(len(*p), 1)
	switch c.mode {
	case counting:
		c.n += n
	case appending:
		c.buf = append(c.buf, *p...)
	default:
		b := c.take(n, "string")
		if c.mode == reading {
			*p = string(b)
		}
		return b
	}
	return nil
}

// Slice walks a count-prefixed list, each element through elem; min is the
// least number of bytes one element can take. An empty list decodes as nil.
// Checking walks every element through (*p)[0], reusing *p's capacity when
// it has any, so a list nested in that element reuses its own in turn and a
// checked list allocates once per level, not once per element.
func Slice[T any](c *Coder, p *[]T, min int, elem func(*Coder, *T)) {
	n := c.Len(len(*p), min)
	switch c.mode {
	case reading:
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	case checking:
		if n > 0 && cap(*p) == 0 {
			*p = make([]T, 1)
		}
		for i := 0; i < n && c.err == nil; i++ {
			elem(c, &(*p)[:1][0])
		}
		return
	}
	s := *p
	for i := range s {
		if c.mode == reading && c.err != nil {
			return
		}
		elem(c, &s[i])
	}
}

// Hold walks a field that a decode keeps as the bytes it arrived as, and
// reports whether it did; where it did not, the caller walks the field as
// itself. Reading runs check — the field's own walk, into a value it then
// drops — over the input in the checking mode, so the field is refused
// exactly where the reading walk would refuse it, and sets *span to the
// bytes the walk covered: a slice of the input, capacity clipped to its
// length, under the ownership rule of the package comment. ReadHeld decodes
// it when a reader asks. Counting and appending a field that has a span
// copy the span. That copy is the field's encoding because a held field's
// layout is canonical (one encoding per value) and walks no field a
// signature leaves out. A field with no span, one the program built, and
// any field inside a checking walk, walk as themselves.
func (c *Coder) Hold(span *[]byte, check func(*Coder)) bool {
	switch c.mode {
	case reading:
		start := c.off
		c.mode = checking
		check(c)
		c.mode = reading
		*span = nil
		if c.err == nil {
			*span = slices.Clip(c.buf[start:c.off])
		}
		return true
	case counting:
		if *span != nil {
			c.n += len(*span)
			return true
		}
	case appending:
		if *span != nil {
			c.buf = append(c.buf, *span...)
			return true
		}
	}
	return false
}

// ReadHeld decodes the front of span with walk, the reading walk of the
// layout Hold checked it with, and returns the value and the bytes it read;
// a span Hold kept, or EncodeHeld made, reads whole. Each call decodes
// afresh and writes nothing to span.
func ReadHeld[T any](span []byte, walk func(*Coder, *T)) (v T, n int, err error) {
	c := newCoder(reading, span)
	walk(c, &v)
	n, _, err = c.done()
	return v, n, err
}

// EncodeHeld returns v's encoding under walk in an exactly-sized slice: the
// span Hold would keep for v, for a store that keeps a field as bytes
// without a frame to hold them from. Like Size and AppendEncode it writes
// nothing through v.
func EncodeHeld[T any](v T, walk func(*Coder, *T)) []byte {
	c := newCoder(counting, nil)
	walk(c, &v)
	n, _, _ := c.done()
	c = newCoder(appending, make([]byte, 0, n))
	walk(c, &v)
	_, buf, _ := c.done()
	return buf
}

// Map walks a count-prefixed map, each entry through kv, which walks the
// key and then the value and returns both (so the entry never has to live
// on the heap). Entries are written in ascending key order, which makes the
// encoding canonical; counting needs no order and neither sorts nor
// allocates. min is the least number of bytes one entry can take. An empty
// map decodes as nil.
func Map[K cmp.Ordered, V any](c *Coder, p *map[K]V, min int, kv func(*Coder, K, V) (K, V)) {
	n := c.Len(len(*p), min)
	switch c.mode {
	case counting:
		for k, v := range *p {
			kv(c, k, v)
		}
	case appending:
		keys := make([]K, 0, n)
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			kv(c, k, (*p)[k])
		}
	default:
		*p = nil
		if n == 0 {
			return
		}
		m := make(map[K]V, n)
		for i := 0; i < n && c.err == nil; i++ {
			var k K
			var v V
			k, v = kv(c, k, v)
			m[k] = v
		}
		*p = m
	}
}
