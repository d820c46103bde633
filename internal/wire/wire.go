// Package wire is the registered binary codec for every message that
// crosses a CycLedger transport: the protocol messages of
// internal/protocol, the Algorithm 3 consensus messages, the committee
// configuration messages, transactions, and PoW solutions.
//
// The package is a leaf: it holds the type tags, the field primitives
// (Coder), and a tag→type registry, and imports none of the message
// packages. Each message package describes a type once, as a layout — one
// walk over its fields against a Coder — and registers it under its tag
// (Register). Size, AppendEncode and Decode are that one walk in three of
// the Coder's four modes, so a type's declared Send size, its encoding and
// its decoder cannot disagree, and encode∘decode is the identity on every
// registered type by construction as much as by test. The fourth mode,
// checking, is the reading walk with nothing kept: Decode runs it over a
// field it holds as the bytes it arrived as (Coder.Hold: a message's
// transaction list, a block's score and reward lists), so the field is
// refused or accepted at Decode exactly as reading it would be, and is read
// only where a receiver asks (ReadHeld). A store that keeps a field as
// bytes without a frame to hold them from encodes them with EncodeHeld (a
// chain entry's transactions). What is hashed is that walk too: an Algorithm 3 payload's
// digest is the hash of its tagged encoding (consensus.PayloadDigest), and
// a transaction's ID the hash of its body (AppendBody), so a digest binds
// exactly the fields that travel.
// What is signed is that walk as well: every signature in the protocol is
// on a message's SigningBytes, its tagged encoding without the signature
// fields the layout marks (Coder.Sig), so a signature too binds every field
// that travels, and a layout is the one place that says what it leaves out.
//
// Every registered type is framed as [u16 tag][body], and has exactly one
// tag. Body conventions: fixed-width big-endian integers; u32 length
// prefixes for byte slices, strings, and element counts; NodeIDs as 4-byte
// two's-complement; 1-byte presence flags for pointer fields; maps encoded
// with sorted keys so encoding is canonical; empty slices and maps decode as
// nil. Nested messages (a Witness's two Propose headers, a carrier's Result)
// are encoded with their own tag, the same framing as at top level. The six
// messages that carry >C/2 evidence — the five certificate carriers through
// their consensus.Result, the eviction request directly — all hold one
// consensus.Quorum frame, whose first body byte says which evidence form
// follows: 0 a list of (voter, signature) entries, 1 a voter bitmap and one
// aggregate proof.
//
// Decode is hardened against hostile input: a max-size guard rejects
// oversized buffers before any work, and every count and length prefix is
// validated against the remaining bytes before allocation, so arbitrary
// bytes can never panic the decoder or force a huge allocation (the fuzz
// targets in fuzz_test.go exercise exactly this).
//
// Ownership: Decode does not copy byte-slice fields (signatures, proofs,
// bitmaps) or held fields out of its input — each is a slice of data,
// capacity clipped to its length. Whoever calls Decode therefore keeps
// data unmodified for as long as the decoded value, or anything taken from
// it, is alive; a caller that reuses its read buffer copies first. In
// return the decoder writes nothing to data and, like Size and
// AppendEncode, nothing through the value's fields, so any number of
// goroutines may decode one buffer at once — which is how the recipients
// of one live broadcast share its encoding (transport/frame.go). Handlers
// already may not mutate a payload: in the simulator one value is shared
// by all its recipients.
package wire

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// MaxMessageSize is the decode-side guard: no legitimate message in any
// supported scenario approaches 1 MiB, so anything larger is rejected
// before the decoder does any work.
const MaxMessageSize = 1 << 20

// Type tags. The tag space is append-only: a tag, once assigned, never
// changes meaning (the live transport's framing and any future persisted
// streams depend on it).
const (
	// TagNil frames a nil payload (e.g. the modeled PVSS beacon traffic).
	TagNil uint16 = 0
	// TagTx frames *ledger.Tx (body = the preimage of its ID).
	TagTx uint16 = 1
	// TagTxList frames protocol.TxListMsg.
	TagTxList uint16 = 2
	// TagVote frames protocol.VoteMsg.
	TagVote uint16 = 3
	// TagIntraPayload frames protocol.IntraPayload.
	TagIntraPayload uint16 = 4
	// TagIntraResult frames protocol.IntraResultMsg.
	TagIntraResult uint16 = 5
	// TagSemiCom frames protocol.SemiComMsg.
	TagSemiCom uint16 = 6
	// TagSemiComOK frames protocol.SemiComOKMsg.
	TagSemiComOK uint16 = 7
	// TagInterFwd frames protocol.InterFwdMsg.
	TagInterFwd uint16 = 8
	// TagInterResult frames protocol.InterResultMsg.
	TagInterResult uint16 = 9
	// TagInterQuery frames protocol.InterQueryMsg.
	TagInterQuery uint16 = 10
	// TagInterPref frames protocol.InterPrefMsg.
	TagInterPref uint16 = 11
	// TagInterPayload frames protocol.InterPayload.
	TagInterPayload uint16 = 12
	// TagScorePayload frames protocol.ScorePayload.
	TagScorePayload uint16 = 13
	// TagScoreResult frames protocol.ScoreResultMsg.
	TagScoreResult uint16 = 14
	// TagRecoveryWitness frames protocol.RecoveryWitness.
	TagRecoveryWitness uint16 = 15
	// TagAccuse frames protocol.AccuseMsg.
	TagAccuse uint16 = 16
	// TagApprove frames protocol.ApproveMsg.
	TagApprove uint16 = 17
	// TagEvictReq frames protocol.EvictReqMsg.
	TagEvictReq uint16 = 18
	// TagEvictPayload frames protocol.EvictPayload.
	TagEvictPayload uint16 = 19
	// TagNewLeader frames protocol.NewLeaderMsg.
	TagNewLeader uint16 = 20
	// TagPow frames protocol.PowMsg.
	TagPow uint16 = 21
	// TagSemiComPayload frames protocol.SemiComPayload.
	TagSemiComPayload uint16 = 22
	// TagBlock frames *protocol.Block.
	TagBlock uint16 = 23
	// TagBlockMsg frames protocol.BlockMsg.
	TagBlockMsg uint16 = 24
	// TagUTXOFinal frames protocol.UTXOFinalMsg.
	TagUTXOFinal uint16 = 25
	// TagUTXOPayload frames protocol.UTXOPayload.
	TagUTXOPayload uint16 = 26
	// TagPropose frames consensus.Propose.
	TagPropose uint16 = 27
	// TagEcho frames consensus.Echo.
	TagEcho uint16 = 28
	// TagConfirm frames consensus.Confirm.
	TagConfirm uint16 = 29
	// TagWitness frames consensus.Witness.
	TagWitness uint16 = 30
	// TagResult frames consensus.Result.
	TagResult uint16 = 31
	// TagJoinRequest frames committee.JoinRequest.
	TagJoinRequest uint16 = 32
	// TagMemList frames committee.MemListMsg.
	TagMemList uint16 = 33
	// TagMemberRecord frames committee.MemberRecord.
	TagMemberRecord uint16 = 34
	// TagSolution frames pow.Solution.
	TagSolution uint16 = 35
	// Tags 36–42 are retired and never reused: each framed the aggregate
	// twin of a type that now has one frame — 36 consensus.AggResult, 37–41
	// the five certificate-carrying messages, 42 the eviction request — with
	// the evidence form told inside the consensus.Quorum it holds.

	// TagFetch frames consensus.Fetch: a member's request for the proposal
	// behind a digest its committee is echoing.
	TagFetch uint16 = 43
	// TagQuorum frames consensus.Quorum.
	TagQuorum uint16 = 44
)

// ErrUnknownType reports an encode request for an unregistered Go type, or
// a decode buffer whose next frame opens with an unassigned type tag.
var ErrUnknownType = errors.New("wire: unknown message type")

// ErrTooLarge reports a decode buffer exceeding MaxMessageSize.
var ErrTooLarge = errors.New("wire: message exceeds MaxMessageSize")

// A row is one registered type: the tag its frames open with and its
// layout, held twice — as the typed function for a walk that knows the
// type statically, and behind an any for one that has to dispatch on a tag
// or a dynamic type.
type row struct {
	tag    uint16
	layout any                       // func(T, *Coder) T
	walk   func(c *Coder, v any) any // the same, boxing the result only when reading
}

// The registry, filled by the message packages' init functions and
// read-only afterwards.
var (
	byType = map[reflect.Type]*row{}
	byTag  []*row // indexed by tag; nil where unassigned
)

// Register enters type T in the codec: layout is its one description, tag
// the frame tag it travels under. A layout walks the fields of the value it is
// given, in wire order, and returns it; it takes and returns the value
// rather than a pointer so that sizing a message never moves it to the
// heap. Pointer-shaped payloads register the pointer type and allocate
// when Reading. Register panics on a tag or type entered twice: the
// registry is a bijection between layouts and types.
func Register[T any](layout func(T, *Coder) T, tag uint16) {
	r := &row{tag: tag, layout: layout, walk: func(c *Coder, v any) any {
		m, _ := v.(T)
		m = layout(m, c)
		if c.mode != reading {
			return nil
		}
		return m
	}}
	t := reflect.TypeFor[T]()
	if byType[t] != nil {
		panic(fmt.Sprintf("wire: %v registered twice", t))
	}
	byType[t] = r
	for int(tag) >= len(byTag) {
		byTag = append(byTag, nil)
	}
	if tag == TagNil || byTag[tag] != nil {
		panic(fmt.Sprintf("wire: tag %d of %v is already taken", tag, t))
	}
	byTag[tag] = r
}

func rowOf(tag uint16) *row {
	if int(tag) < len(byTag) {
		return byTag[tag]
	}
	return nil
}

// unknownType latches ErrUnknownType for an unregistered Go type.
func (c *Coder) unknownType(t reflect.Type) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrUnknownType, t)
	}
}

// unknownTag latches ErrUnknownType for the unassigned tag just read.
func (c *Coder) unknownTag(tag uint16) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: tag %d at offset %d", ErrUnknownType, tag, c.off-2)
	}
}

// open starts a nested frame of r's type: it counts or writes the type's
// tag, or checks that the tag at the cursor is the type's.
func (c *Coder) open(r *row) bool {
	tag := r.tag
	c.u16(&tag)
	if !c.Reading() {
		return true
	}
	switch {
	case c.err != nil || tag == r.tag:
	case rowOf(tag) == nil && tag != TagNil:
		c.unknownTag(tag)
	default:
		c.Fail("nested frame")
	}
	return c.err == nil
}

// Field walks a nested message of registered type T: its tag, then its
// layout.
func Field[T any](c *Coder, p *T) {
	if !field(c, p) {
		c.unknownType(reflect.TypeFor[T]())
	}
}

// field is Field, reporting instead of latching that T is not registered.
func field[T any](c *Coder, p *T) bool {
	r := byType[reflect.TypeFor[T]()]
	if r == nil {
		return false
	}
	if c.open(r) {
		signing := c.signing
		c.signing = false // a nested frame is signed whole
		m := r.layout.(func(T, *Coder) T)(*p, c)
		c.signing = signing
		if c.Reading() {
			*p = m
		}
	}
	return true
}

// Optional walks a pointer field to a registered type T: a presence byte,
// then the frame when the pointer is set.
func Optional[T any](c *Coder, p **T) {
	present := *p != nil
	c.Bool(&present)
	if !present {
		return
	}
	if c.Reading() {
		*p = new(T)
	}
	Field(c, *p)
}

// Any walks a field that may hold any registered value, nil included (an
// Algorithm 3 payload): the frame is told by the value's dynamic type when
// counting and appending, by its tag when reading.
func (c *Coder) Any(p *any) {
	if c.Reading() {
		var tag uint16
		c.u16(&tag)
		*p = nil
		if c.err != nil || tag == TagNil {
			return
		}
		r := rowOf(tag)
		if r == nil {
			c.unknownTag(tag)
			return
		}
		*p = r.walk(c, nil)
		return
	}
	if *p == nil {
		tag := TagNil
		c.u16(&tag)
		return
	}
	r := byType[reflect.TypeOf(*p)]
	if r == nil {
		c.unknownType(reflect.TypeOf(*p))
		return
	}
	c.open(r)
	signing := c.signing
	c.signing = false
	r.walk(c, *p)
	c.signing = signing
}

// coders recycles Coders across the package's entry points: a layout is
// reached through a function value, so a Coder on the caller's stack would
// escape to the heap on every call.
var coders = sync.Pool{New: func() any { return new(Coder) }}

func newCoder(m mode, buf []byte) *Coder {
	c := coders.Get().(*Coder)
	*c = Coder{mode: m, buf: buf}
	return c
}

// done returns the Coder to the pool and reports how the walk ended: the
// bytes counted or consumed, the output buffer, and the latched error.
func (c *Coder) done() (n int, out []byte, err error) {
	n, out, err = c.n, c.buf, c.err
	if c.Reading() {
		n = c.off
	}
	*c = Coder{}
	coders.Put(c)
	return n, out, err
}

// Size returns the exact encoded size of a value, tag included — the byte
// count every Send declares. It is the value's layout in counting mode: no
// allocation, no sorting. T is a registered type or an interface holding
// one; an unregistered value (a test double that never crosses a real
// transport), at top level or nested, counts as zero bytes.
func Size[T any](v T) int {
	c := newCoder(counting, nil)
	if !field(c, &v) {
		x := any(v)
		c.Any(&x)
	}
	n, _, _ := c.done()
	return n
}

// SizeHint is Size for a value of dynamic type, reporting an unregistered
// one as ErrUnknownType.
func SizeHint(v any) (int, error) {
	c := newCoder(counting, nil)
	c.Any(&v)
	n, _, err := c.done()
	return n, err
}

// AppendEncode appends the tagged encoding of a registered value to buf
// and returns the extended slice. Exactly SizeHint(v) bytes are appended.
func AppendEncode(buf []byte, v any) ([]byte, error) {
	c := newCoder(appending, buf)
	c.Any(&v)
	_, buf, err := c.done()
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendBody appends the body of a value of registered type T — its
// layout's encoding without the frame tag — to buf and returns the extended
// slice: the preimage of a type named by the hash of its content (a
// transaction's ID). T must be registered.
func AppendBody[T any](buf []byte, v T) []byte {
	c := newCoder(appending, buf)
	byType[reflect.TypeFor[T]()].layout.(func(T, *Coder) T)(v, c)
	_, buf, _ = c.done()
	return buf
}

// SigningBytes appends to buf what a signature on v covers, and returns the
// extended slice: v's tagged encoding, as AppendEncode writes it, without
// the fields v's layout leaves outside its signature — each field it walks
// with Sig, and any it skips when Signing. The tag keeps apart two types
// whose bodies are equal; a message nested in v is covered whole, its own
// signature fields included. T must be registered.
func SigningBytes[T any](buf []byte, v T) []byte {
	r := byType[reflect.TypeFor[T]()]
	c := newCoder(appending, buf)
	c.open(r)
	c.signing = true
	r.layout.(func(T, *Coder) T)(v, c)
	_, buf, _ = c.done()
	return buf
}

// Encode is the allocate-and-encode convenience over SizeHint +
// AppendEncode: one exact-size buffer, no growth.
func Encode(v any) ([]byte, error) {
	n, err := SizeHint(v)
	if err != nil {
		return nil, err
	}
	return AppendEncode(make([]byte, 0, n), v)
}

// Decode parses one tagged message from the front of data, returning the
// decoded value and the number of bytes consumed. The returned value has
// the dynamic type the protocol layer's handlers assert on: value types
// for messages, pointers for the pointer-shaped payloads (transactions,
// blocks, the intra and inter Algorithm 3 payloads, and the messages that
// carry a certificate to C_R or across committees), and untyped nil for
// TagNil.
//
// Buffers larger than MaxMessageSize are rejected outright; every length
// and count prefix is validated against the remaining bytes before
// allocation, so Decode never panics on arbitrary input.
func Decode(data []byte) (any, int, error) {
	if len(data) > MaxMessageSize {
		return nil, 0, ErrTooLarge
	}
	c := newCoder(reading, data)
	var v any
	c.Any(&v)
	n, _, err := c.done()
	if err != nil {
		return nil, 0, err
	}
	return v, n, nil
}
