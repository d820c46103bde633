package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// Decode parses one tagged message from the front of data, returning the
// decoded value and the number of bytes consumed. The returned value has
// the dynamic type the protocol layer's handlers assert on: value types
// for messages, *ledger.Tx and *protocol.Block for the two
// pointer-shaped payloads, and untyped nil for TagNil.
//
// Buffers larger than MaxMessageSize are rejected outright; every length
// and count prefix is validated against the remaining bytes before
// allocation, so Decode never panics on arbitrary input.
func Decode(data []byte) (any, int, error) {
	if len(data) > MaxMessageSize {
		return nil, 0, ErrTooLarge
	}
	r := &reader{buf: data}
	v := decodeAny(r)
	if r.err != nil {
		return nil, 0, r.err
	}
	return v, r.off, nil
}

// reader is a bounds-checked cursor over a decode buffer. The first
// failure latches err; every subsequent read is a cheap no-op returning
// zero values, so decode code reads straight-line without per-field error
// plumbing.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or invalid %s at offset %d", what, r.off)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u8(what string) byte {
	if r.err != nil || r.remaining() < 1 {
		r.fail(what)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u16(what string) uint16 {
	if r.err != nil || r.remaining() < 2 {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.remaining() < 4 {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.remaining() < 8 {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// count reads a u32 element count and validates it against the remaining
// bytes assuming each element occupies at least min bytes, so a hostile
// count can never drive a huge allocation.
func (r *reader) count(what string, min int) int {
	c := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if c < 0 || (min > 0 && c > r.remaining()/min) {
		r.fail(what)
		return 0
	}
	return c
}

func (r *reader) bytes(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

func (r *reader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil {
		return ""
	}
	if n < 0 || n > r.remaining() {
		r.fail(what)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) digest(what string) crypto.Digest {
	var d crypto.Digest
	if r.err != nil || r.remaining() < len(d) {
		r.fail(what)
		return d
	}
	copy(d[:], r.buf[r.off:])
	r.off += len(d)
	return d
}

func (r *reader) nodeID(what string) simnet.NodeID {
	return simnet.NodeID(int32(r.u32(what)))
}

func (r *reader) nodes(what string) []simnet.NodeID {
	c := r.count(what, 4)
	if r.err != nil || c == 0 {
		return nil
	}
	out := make([]simnet.NodeID, c)
	for i := range out {
		out[i] = r.nodeID(what)
	}
	return out
}

func (r *reader) votes(what string) reputation.VoteVector {
	c := r.count(what, 1)
	if r.err != nil || c == 0 {
		return nil
	}
	out := make(reputation.VoteVector, c)
	for i := range out {
		b := r.u8(what)
		if b > 2 {
			r.fail(what)
			return nil
		}
		out[i] = reputation.Vote(int8(b) - 1)
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) tx(what string) *ledger.Tx {
	if r.err != nil {
		return nil
	}
	tx, n, err := ledger.DecodeTx(r.buf[r.off:])
	if err != nil {
		r.fail(what)
		return nil
	}
	r.off += n
	return tx
}

// txs reads a count-prefixed list of tagged transactions.
func (r *reader) txs(what string) []*ledger.Tx {
	c := r.count(what, 2)
	if r.err != nil || c == 0 {
		return nil
	}
	out := make([]*ledger.Tx, c)
	for i := range out {
		v := decodeAny(r)
		tx, ok := v.(*ledger.Tx)
		if !ok || r.err != nil {
			r.fail(what)
			return nil
		}
		out[i] = tx
	}
	return out
}

// expect decodes the next tagged value and asserts its type; T is one of
// the registered concrete types.
func expect[T any](r *reader, what string) T {
	var zero T
	v := decodeAny(r)
	if r.err != nil {
		return zero
	}
	t, ok := v.(T)
	if !ok {
		r.fail(what)
		return zero
	}
	return t
}

// expectCert decodes the decision certificate nested in a carrier message.
// Certificates are self-tagged, so exactly two frames are admitted —
// TagResult and TagAggResult — and any other value, however well-formed, is
// a decode error.
func expectCert(r *reader, what string) consensus.Certificate {
	switch c := decodeAny(r).(type) {
	case consensus.Result:
		return c
	case consensus.AggResult:
		return c
	}
	r.fail(what)
	return nil
}

// decodeAny reads one tagged value at the cursor.
func decodeAny(r *reader) any {
	tag := r.u16("type tag")
	if r.err != nil {
		return nil
	}
	switch tag {
	case TagNil:
		return nil
	case TagTx:
		return r.tx("tx")
	case TagTxList:
		m := protocol.TxListMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Attempt = int(int32(r.u32("attempt")))
		m.Txs = r.txs("txs")
		m.Sig = r.bytes("sig")
		return m
	case TagVote:
		m := protocol.VoteMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Attempt = int(int32(r.u32("attempt")))
		m.Voter = r.nodeID("voter")
		m.Votes = r.votes("votes")
		m.Sig = r.bytes("sig")
		return m
	case TagIntraPayload:
		var m protocol.IntraPayload
		m.Txs = r.txs("txs")
		m.Voters = r.nodes("voters")
		c := r.count("vote lists", 4)
		if c > 0 {
			m.Votes = make([]reputation.VoteVector, c)
			for i := range m.Votes {
				m.Votes[i] = r.votes("votes")
			}
		}
		return m
	case TagIntraResult:
		m := protocol.IntraResultMsg{Committee: r.u64("committee")}
		m.Result = expectCert(r, "result")
		m.Members = r.nodes("members")
		return m
	case TagSemiCom:
		return decodeSemiComBody(r)
	case TagSemiComOK:
		m := protocol.SemiComOKMsg{Round: r.u64("round")}
		c := r.count("semicoms", 8+32)
		if r.err != nil || c == 0 {
			return m
		}
		m.SemiComs = make(map[uint64]crypto.Digest, c)
		for i := 0; i < c; i++ {
			k := r.u64("semicom key")
			m.SemiComs[k] = r.digest("semicom digest")
		}
		return m
	case TagInterFwd:
		m := protocol.InterFwdMsg{Round: r.u64("round"), From: r.u64("from"), To: r.u64("to")}
		m.Txs = r.txs("txs")
		m.Cert = expectCert(r, "cert")
		m.Members = r.nodes("members")
		return m
	case TagInterResult:
		m := protocol.InterResultMsg{Round: r.u64("round"), From: r.u64("from"), To: r.u64("to")}
		m.Result = expectCert(r, "result")
		return m
	case TagInterQuery:
		m := protocol.InterQueryMsg{Round: r.u64("round"), From: r.u64("from"), To: r.u64("to")}
		m.Txs = r.txs("txs")
		return m
	case TagInterPref:
		m := protocol.InterPrefMsg{Round: r.u64("round"), From: r.u64("from"), To: r.u64("to")}
		c := r.count("valid flags", 1)
		if c > 0 {
			m.Valid = make([]bool, c)
			for i := range m.Valid {
				m.Valid[i] = r.u8("valid flag") != 0
			}
		}
		return m
	case TagInterPayload:
		m := protocol.InterPayload{From: r.u64("from")}
		m.Txs = r.txs("txs")
		return m
	case TagScorePayload:
		var m protocol.ScorePayload
		m.Members = r.nodes("members")
		c := r.count("scores", 8)
		if c > 0 {
			m.Scores = make([]float64, c)
			for i := range m.Scores {
				m.Scores[i] = math.Float64frombits(r.u64("score"))
			}
		}
		return m
	case TagScoreResult:
		m := protocol.ScoreResultMsg{Committee: r.u64("committee")}
		m.Result = expectCert(r, "result")
		m.Members = r.nodes("members")
		return m
	case TagRecoveryWitness:
		return decodeRecoveryWitnessBody(r)
	case TagAccuse:
		m := protocol.AccuseMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Accuser = r.nodeID("accuser")
		m.Witness = expect[protocol.RecoveryWitness](r, "witness")
		return m
	case TagApprove:
		m := protocol.ApproveMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Accuser = r.nodeID("accuser")
		m.Voter = r.nodeID("voter")
		m.Sig = r.bytes("sig")
		return m
	case TagEvictReq, TagAggEvictReq:
		m := protocol.EvictReqMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Accuser = r.nodeID("accuser")
		m.Witness = expect[protocol.RecoveryWitness](r, "witness")
		if tag == TagAggEvictReq {
			// Non-nil even when empty: a non-nil Bitmap is what marks the
			// aggregate evidence form, so the value re-encodes to this frame.
			m.Bitmap = append(consensus.Bitmap{}, r.bytes("bitmap")...)
			m.Proof = r.bytes("proof")
			return m
		}
		c := r.count("approvals", 2)
		if c > 0 {
			m.Approvals = make([]protocol.ApproveMsg, c)
			for i := range m.Approvals {
				m.Approvals[i] = expect[protocol.ApproveMsg](r, "approval")
			}
		}
		return m
	case TagEvictPayload:
		m := protocol.EvictPayload{Committee: r.u64("committee")}
		m.Evicted = r.nodeID("evicted")
		m.Successor = r.nodeID("successor")
		m.Witness = expect[protocol.RecoveryWitness](r, "witness")
		return m
	case TagNewLeader:
		m := protocol.NewLeaderMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Evicted = r.nodeID("evicted")
		m.Successor = r.nodeID("successor")
		m.Referee = r.nodeID("referee")
		return m
	case TagPow:
		m := protocol.PowMsg{Round: r.u64("round")}
		m.Node = r.nodeID("node")
		m.Solution = expect[pow.Solution](r, "solution")
		return m
	case TagSemiComPayload:
		m := protocol.SemiComPayload{Committee: r.u64("committee")}
		m.Msg = expect[protocol.SemiComMsg](r, "semicom msg")
		return m
	case TagBlock:
		return decodeBlockBody(r)
	case TagBlockMsg:
		var m protocol.BlockMsg
		if r.u8("block presence") != 0 {
			m.Block = expect[*protocol.Block](r, "block")
		}
		return m
	case TagUTXOFinal:
		m := protocol.UTXOFinalMsg{Round: r.u64("round"), Committee: r.u64("committee")}
		m.Digest = r.digest("digest")
		m.Result = expectCert(r, "result")
		return m
	case TagUTXOPayload:
		m := protocol.UTXOPayload{Committee: r.u64("committee")}
		m.UTXO = r.digest("utxo")
		return m
	case TagPropose:
		return decodeProposeBody(r)
	case TagEcho:
		m := consensus.Echo{Round: r.u64("round"), SN: r.u64("sn")}
		m.Digest = r.digest("digest")
		m.Echoer = r.nodeID("echoer")
		m.Sig = r.bytes("sig")
		m.Propose = expect[consensus.Propose](r, "propose")
		return m
	case TagConfirm:
		return decodeConfirmBody(r)
	case TagWitness:
		var m consensus.Witness
		m.A = expect[consensus.Propose](r, "propose A")
		m.B = expect[consensus.Propose](r, "propose B")
		return m
	case TagResult:
		m := consensus.Result{Round: r.u64("round"), SN: r.u64("sn")}
		m.Digest = r.digest("digest")
		m.Payload = decodeAny(r)
		c := r.count("confirms", 2)
		if c > 0 {
			m.Confirms = make([]consensus.Confirm, c)
			for i := range m.Confirms {
				m.Confirms[i] = expect[consensus.Confirm](r, "confirm")
			}
		}
		return m
	case TagAggResult:
		m := consensus.AggResult{Round: r.u64("round"), SN: r.u64("sn")}
		m.Digest = r.digest("digest")
		m.Payload = decodeAny(r)
		m.Bitmap = consensus.Bitmap(r.bytes("bitmap"))
		m.Proof = r.bytes("proof")
		return m
	case TagJoinRequest:
		var m committee.JoinRequest
		m.Rec = expect[committee.MemberRecord](r, "record")
		return m
	case TagMemList:
		var m committee.MemListMsg
		c := r.count("records", 2)
		if c > 0 {
			m.Records = make([]committee.MemberRecord, c)
			for i := range m.Records {
				m.Records[i] = expect[committee.MemberRecord](r, "record")
			}
		}
		return m
	case TagMemberRecord:
		var m committee.MemberRecord
		m.Node = r.nodeID("node")
		m.PK = r.bytes("pk")
		m.Hash = r.digest("hash")
		m.Proof = r.bytes("proof")
		return m
	case TagSolution:
		var m pow.Solution
		m.PK = r.bytes("pk")
		m.Nonce = r.u64("nonce")
		return m
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: tag %d at offset %d", ErrUnknownType, tag, r.off-2)
		}
		return nil
	}
}

func decodeSemiComBody(r *reader) any {
	m := protocol.SemiComMsg{Round: r.u64("round"), Committee: r.u64("committee")}
	m.SemiCom = r.digest("semicom")
	c := r.count("records", 2)
	if c > 0 {
		m.Records = make([]committee.MemberRecord, c)
		for i := range m.Records {
			m.Records[i] = expect[committee.MemberRecord](r, "record")
		}
	}
	m.Sig = r.bytes("sig")
	return m
}

func decodeRecoveryWitnessBody(r *reader) any {
	m := protocol.RecoveryWitness{Kind: r.str("kind")}
	m.Committee = r.u64("committee")
	m.Phase = r.str("phase")
	if r.u8("equiv presence") != 0 {
		w := expect[consensus.Witness](r, "equiv witness")
		if r.err == nil {
			m.Equiv = &w
		}
	}
	if r.u8("semicom presence") != 0 {
		sc := expect[protocol.SemiComMsg](r, "semicom msg")
		if r.err == nil {
			m.SemiCom = &sc
		}
	}
	return m
}

func decodeProposeBody(r *reader) any {
	m := consensus.Propose{Round: r.u64("round"), SN: r.u64("sn")}
	m.Digest = r.digest("digest")
	m.Payload = decodeAny(r)
	m.Size = int(int32(r.u32("size")))
	m.Leader = r.nodeID("leader")
	m.Sig = r.bytes("sig")
	return m
}

func decodeConfirmBody(r *reader) any {
	m := consensus.Confirm{Round: r.u64("round"), SN: r.u64("sn")}
	m.Digest = r.digest("digest")
	m.Confirmer = r.nodeID("confirmer")
	m.Sig = r.bytes("sig")
	c := r.count("echo sigs", 8)
	if r.err != nil || c == 0 {
		return m
	}
	m.EchoSigs = make(map[simnet.NodeID][]byte, c)
	for i := 0; i < c; i++ {
		id := r.nodeID("echo signer")
		m.EchoSigs[id] = r.bytes("echo sig")
	}
	return m
}

func decodeBlockBody(r *reader) any {
	b := &protocol.Block{Round: r.u64("round")}
	b.Txs = r.txs("txs")
	b.Fees = r.u64("fees")
	b.Randomness = r.digest("randomness")
	b.NextReferee = r.nodes("next referee")
	b.NextLeaders = r.nodes("next leaders")
	c := r.count("next partials", 4)
	if c > 0 {
		b.NextPartials = make([][]simnet.NodeID, c)
		for i := range b.NextPartials {
			b.NextPartials[i] = r.nodes("partial set")
		}
	}
	cr := r.count("reputations", 4+8)
	if r.err != nil {
		return b
	}
	if cr > 0 {
		b.Reputations = make(map[string]float64, cr)
		for i := 0; i < cr; i++ {
			k := r.str("reputation key")
			b.Reputations[k] = math.Float64frombits(r.u64("reputation"))
		}
	}
	cw := r.count("rewards", 4+8)
	if r.err != nil {
		return b
	}
	if cw > 0 {
		b.Rewards = make(map[string]uint64, cw)
		for i := 0; i < cw; i++ {
			k := r.str("reward key")
			b.Rewards[k] = r.u64("reward")
		}
	}
	return b
}
