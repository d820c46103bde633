package wire_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/ledger"
	"cycledger/internal/protocol"
	"cycledger/internal/wire"
)

// txLists calls visit on every transaction list reachable from v, in field
// order, and returns the copy of v it walked: what visit stores lands there,
// and in whatever v's pointers reach.
func txLists(v any, visit func(*protocol.TxList)) any {
	return structs(v, func(p any) bool {
		l, ok := p.(*protocol.TxList)
		if ok {
			visit(l)
		}
		return ok
	})
}

// structs calls visit on the address of every struct reachable from v, in
// field order, and walks into a struct's fields where visit returns false;
// it returns the copy of v it walked, as txLists does.
func structs(v any, visit func(any) bool) any {
	if v == nil {
		return nil
	}
	c := reflect.New(reflect.TypeOf(v)).Elem()
	c.Set(reflect.ValueOf(v))
	walkStructs(c, visit)
	return c.Interface()
}

func walkStructs(v reflect.Value, visit func(any) bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			walkStructs(v.Elem(), visit)
		}
	case reflect.Interface:
		if !v.IsNil() {
			c := reflect.New(v.Elem().Type()).Elem()
			c.Set(v.Elem())
			walkStructs(c, visit)
			v.Set(c)
		}
	case reflect.Struct:
		if visit(v.Addr().Interface()) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				walkStructs(f, visit)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkStructs(v.Index(i), visit)
		}
	}
}

// eager returns v with every list it holds as bytes read into entries — a
// transaction list, a block's score and reward lists: the value a decode
// that read every list would return, so a decoded value compares with
// DeepEqual to the value that was encoded.
func eager(v any) any {
	return structs(v, func(p any) bool {
		switch l := p.(type) {
		case *protocol.TxList:
			*l = protocol.TxsOf(l.Txs()...)
		case *protocol.Names[protocol.Score]:
			*l = protocol.NamesOf(l.List()...)
		case *protocol.Names[protocol.Reward]:
			*l = protocol.NamesOf(l.List()...)
		default:
			return false
		}
		return true
	})
}

// heldBytes is the span a decoded list holds, nil for a list the program
// built.
func heldBytes(l protocol.TxList) []byte {
	return reflect.ValueOf(l).FieldByName("held").Bytes()
}

// TestHeldTxLists: every transaction list a decode returns is held as the
// bytes it arrived as, and reads (Txs) as the list that was encoded. A
// message holding one re-encodes to exactly the bytes it was read from,
// with no allocation beyond the output buffer, and its signing bytes and
// payload digest are those of the message that was sent.
func TestHeldTxLists(t *testing.T) {
	held := 0
	for _, v := range fixtures() {
		var want, got []protocol.TxList
		txLists(v, func(l *protocol.TxList) { want = append(want, *l) })
		if len(want) == 0 {
			continue
		}
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("Encode %T: %v", v, err)
		}
		dec, _, err := wire.Decode(enc)
		if err != nil {
			t.Fatalf("Decode %T: %v", v, err)
		}
		txLists(dec, func(l *protocol.TxList) { got = append(got, *l) })
		if len(got) != len(want) {
			t.Fatalf("%T: decoded %d lists, encoded %d", v, len(got), len(want))
		}
		for i := range got {
			span := heldBytes(got[i])
			if len(span) == 0 || !bytes.Contains(enc, span) {
				t.Errorf("%T: list %d is not held as bytes of its input (%d held)", v, i, len(span))
			}
			if !reflect.DeepEqual(got[i].Txs(), want[i].Txs()) {
				t.Errorf("%T: list %d reads as %v, encoded %v", v, i, got[i].Txs(), want[i].Txs())
			}
			held++
		}
		buf := make([]byte, 0, len(enc))
		if again, err := wire.AppendEncode(buf, dec); err != nil || !bytes.Equal(again, enc) {
			t.Errorf("%T: re-encodes differently (err %v)\n got %x\nwant %x", v, err, again, enc)
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { wire.AppendEncode(buf[:0], dec) }); allocs != 0 {
				t.Errorf("%T: re-encoding a held list allocates %.0f times", v, allocs)
			}
		}
		switch m := dec.(type) {
		case protocol.TxListMsg:
			if got, want := wire.SigningBytes(nil, m), wire.SigningBytes(nil, v.(protocol.TxListMsg)); !bytes.Equal(got, want) {
				t.Errorf("held list's signing bytes\n got %x\nwant %x", got, want)
			}
		case *protocol.IntraPayload, *protocol.InterPayload, *protocol.Block:
			if consensus.PayloadDigest(m) != consensus.PayloadDigest(v) {
				t.Errorf("%T: a held list changes the payload digest", v)
			}
		}
	}
	if held == 0 {
		t.Fatal("no fixture carries a transaction list: the check is vacuous")
	}
}

// listWalk is the reading walk of a message's transaction list, written
// from the codec's primitives: a count-prefixed list of tagged
// transactions, each at least its two tag bytes.
func listWalk(c *wire.Coder, p *[]*ledger.Tx) { wire.Slice(c, p, 2, wire.Field[*ledger.Tx]) }

// FuzzHeldTxList holds the checking walk to the reading walk on arbitrary
// list bytes, carried as the last field of an InterQueryMsg: Decode, which
// checks the list, accepts exactly what reading it accepts, consumes the
// same bytes, and an accepted list reads as the reading walk's and
// re-encodes to the bytes it was read from. The seed corpus is every
// fixture list's bytes plus a list cut short.
func FuzzHeldTxList(f *testing.F) {
	head := []byte{0, byte(wire.TagInterQuery)}
	head = binary.BigEndian.AppendUint64(head, 3)
	head = binary.BigEndian.AppendUint64(head, 0)
	head = binary.BigEndian.AppendUint64(head, 2)
	for _, v := range fixtures() {
		txLists(v, func(l *protocol.TxList) {
			enc, err := wire.Encode(protocol.InterQueryMsg{Round: 3, From: 0, To: 2, Txs: *l})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc[len(head):])
			f.Add(enc[len(head) : len(enc)-1])
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append(append([]byte(nil), head...), data...)
		if len(frame) > wire.MaxMessageSize {
			return
		}
		v, n, err := wire.Decode(frame)
		want, wantN, wantErr := wire.ReadHeld(data, listWalk)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("checking walk err %v, reading walk err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if n-len(head) != wantN {
			t.Fatalf("checking walk read %d bytes, reading walk %d", n-len(head), wantN)
		}
		if got := v.(protocol.InterQueryMsg).Txs.Txs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("held list reads as %v, reading walk %v", got, want)
		}
		if enc, err := wire.Encode(v); err != nil || !bytes.Equal(enc, frame[:n]) {
			t.Fatalf("accepted list does not re-encode to its bytes (err %v)\n in:  %x\n out: %x", err, frame[:n], enc)
		}
	})
}
