// Package wire is the registered binary codec for every message that
// crosses a CycLedger transport: the protocol messages of
// internal/protocol, the Algorithm 3 consensus messages, the committee
// configuration messages, transactions, and PoW solutions.
//
// Every registered type is framed as [u16 tag][body]. Encoding is an
// exact-size append-into-buffer walk (no reflection on the hot path):
// SizeHint returns the precise encoded length, AppendEncode appends
// exactly that many bytes, and Decode inverts it — encode∘decode is the
// identity on every registered type, which the codec's round-trip tests
// enforce. The per-type sizes are mirrored by the WireSize methods in the
// message packages themselves (internal/consensus/wiresize.go et al.) so
// protocol call sites can declare exact Send sizes without importing this
// package; the audit tests assert the two stay in agreement.
//
// Body conventions: fixed-width big-endian integers; u32 length prefixes
// for byte slices, strings, and element counts; NodeIDs as 4-byte
// two's-complement; 1-byte presence flags for pointer fields; maps
// encoded with sorted keys so encoding is canonical. Nested messages of
// concrete type (an Echo's Propose, a Result's Confirms) are encoded with
// their own tag, the same framing as at top level. That is also how the
// five certificate-carrying messages say which certificate form they hold:
// the nested consensus.Certificate is a TagResult or a TagAggResult frame.
//
// Decode is hardened against hostile input: a max-size guard rejects
// oversized buffers before any work, and every count and length prefix is
// validated against the remaining bytes before allocation, so arbitrary
// bytes can never panic the decoder or force a huge allocation (the fuzz
// targets in fuzz_test.go exercise exactly this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
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
	// TagTx frames *ledger.Tx (body = the canonical hash encoding).
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
	// TagAggResult frames consensus.AggResult.
	TagAggResult uint16 = 36
	// Tags 37–41 are retired and never reused: they framed aggregate twins
	// of the five certificate-carrying messages, which now travel under
	// their one tag each with the certificate form told by its own tag
	// (TagResult or TagAggResult).

	// TagAggEvictReq frames protocol.EvictReqMsg with aggregate approval
	// evidence (bitmap + proof where TagEvictReq carries the approval list).
	TagAggEvictReq uint16 = 42
)

// ErrUnknownType reports an encode request for an unregistered Go type, or
// a decode buffer whose next frame opens with an unassigned type tag.
var ErrUnknownType = errors.New("wire: unknown message type")

// ErrTooLarge reports a decode buffer exceeding MaxMessageSize.
var ErrTooLarge = errors.New("wire: message exceeds MaxMessageSize")

// SizeHint returns the exact encoded size of a registered value, tag
// included. It is the codec-side mirror of the message packages' WireSize
// methods; the audit test asserts they agree.
func SizeHint(v any) (int, error) {
	switch m := v.(type) {
	case nil:
		return 2, nil
	case *ledger.Tx:
		return m.WireSize(), nil
	case protocol.TxListMsg:
		return m.WireSize(), nil
	case protocol.VoteMsg:
		return m.WireSize(), nil
	case protocol.IntraPayload:
		return m.WireSize(), nil
	case protocol.IntraResultMsg:
		return m.WireSize(), nil
	case protocol.SemiComMsg:
		return m.WireSize(), nil
	case protocol.SemiComOKMsg:
		return m.WireSize(), nil
	case protocol.InterFwdMsg:
		return m.WireSize(), nil
	case protocol.InterResultMsg:
		return m.WireSize(), nil
	case protocol.InterQueryMsg:
		return m.WireSize(), nil
	case protocol.InterPrefMsg:
		return m.WireSize(), nil
	case protocol.InterPayload:
		return m.WireSize(), nil
	case protocol.ScorePayload:
		return m.WireSize(), nil
	case protocol.ScoreResultMsg:
		return m.WireSize(), nil
	case protocol.RecoveryWitness:
		return m.WireSize(), nil
	case protocol.AccuseMsg:
		return m.WireSize(), nil
	case protocol.ApproveMsg:
		return m.WireSize(), nil
	case protocol.EvictReqMsg:
		return m.WireSize(), nil
	case protocol.EvictPayload:
		return m.WireSize(), nil
	case protocol.NewLeaderMsg:
		return m.WireSize(), nil
	case protocol.PowMsg:
		return m.WireSize(), nil
	case protocol.SemiComPayload:
		return m.WireSize(), nil
	case *protocol.Block:
		return m.WireSize(), nil
	case protocol.BlockMsg:
		return m.WireSize(), nil
	case protocol.UTXOFinalMsg:
		return m.WireSize(), nil
	case protocol.UTXOPayload:
		return m.WireSize(), nil
	case consensus.Propose:
		return m.WireSize(), nil
	case consensus.Echo:
		return m.WireSize(), nil
	case consensus.Confirm:
		return m.WireSize(), nil
	case consensus.Witness:
		return m.WireSize(), nil
	case consensus.Result:
		return m.WireSize(), nil
	case consensus.AggResult:
		return m.WireSize(), nil
	case committee.JoinRequest:
		return m.WireSize(), nil
	case committee.MemListMsg:
		return m.WireSize(), nil
	case committee.MemberRecord:
		return m.WireSize(), nil
	case pow.Solution:
		return m.WireSize(), nil
	default:
		return 0, fmt.Errorf("%w: %T", ErrUnknownType, v)
	}
}

// AppendEncode appends the tagged encoding of a registered value to buf
// and returns the extended slice. Exactly SizeHint(v) bytes are appended.
func AppendEncode(buf []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case nil:
		return binary.BigEndian.AppendUint16(buf, TagNil), nil
	case *ledger.Tx:
		buf = binary.BigEndian.AppendUint16(buf, TagTx)
		return m.AppendEncode(buf), nil
	case protocol.TxListMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagTxList)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.Attempt)))
		var err error
		if buf, err = appendTxs(buf, m.Txs); err != nil {
			return nil, err
		}
		return appendBytes(buf, m.Sig), nil
	case protocol.VoteMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagVote)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.Attempt)))
		buf = appendNodeID(buf, m.Voter)
		buf = appendVotes(buf, m.Votes)
		return appendBytes(buf, m.Sig), nil
	case protocol.IntraPayload:
		buf = binary.BigEndian.AppendUint16(buf, TagIntraPayload)
		var err error
		if buf, err = appendTxs(buf, m.Txs); err != nil {
			return nil, err
		}
		buf = appendNodes(buf, m.Voters)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Votes)))
		for _, v := range m.Votes {
			buf = appendVotes(buf, v)
		}
		return buf, nil
	case protocol.IntraResultMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagIntraResult)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		var err error
		if buf, err = AppendEncode(buf, m.Result); err != nil {
			return nil, err
		}
		return appendNodes(buf, m.Members), nil
	case protocol.SemiComMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagSemiCom)
		return appendSemiComBody(buf, m)
	case protocol.SemiComOKMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagSemiComOK)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.SemiComs)))
		keys := make([]uint64, 0, len(m.SemiComs))
		for k := range m.SemiComs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			d := m.SemiComs[k]
			buf = binary.BigEndian.AppendUint64(buf, k)
			buf = append(buf, d[:]...)
		}
		return buf, nil
	case protocol.InterFwdMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagInterFwd)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.From)
		buf = binary.BigEndian.AppendUint64(buf, m.To)
		var err error
		if buf, err = appendTxs(buf, m.Txs); err != nil {
			return nil, err
		}
		if buf, err = AppendEncode(buf, m.Cert); err != nil {
			return nil, err
		}
		return appendNodes(buf, m.Members), nil
	case protocol.InterResultMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagInterResult)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.From)
		buf = binary.BigEndian.AppendUint64(buf, m.To)
		return AppendEncode(buf, m.Result)
	case protocol.InterQueryMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagInterQuery)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.From)
		buf = binary.BigEndian.AppendUint64(buf, m.To)
		return appendTxs(buf, m.Txs)
	case protocol.InterPrefMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagInterPref)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.From)
		buf = binary.BigEndian.AppendUint64(buf, m.To)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Valid)))
		for _, b := range m.Valid {
			if b {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		return buf, nil
	case protocol.InterPayload:
		buf = binary.BigEndian.AppendUint16(buf, TagInterPayload)
		buf = binary.BigEndian.AppendUint64(buf, m.From)
		return appendTxs(buf, m.Txs)
	case protocol.ScorePayload:
		buf = binary.BigEndian.AppendUint16(buf, TagScorePayload)
		buf = appendNodes(buf, m.Members)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Scores)))
		for _, s := range m.Scores {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s))
		}
		return buf, nil
	case protocol.ScoreResultMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagScoreResult)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		var err error
		if buf, err = AppendEncode(buf, m.Result); err != nil {
			return nil, err
		}
		return appendNodes(buf, m.Members), nil
	case protocol.RecoveryWitness:
		buf = binary.BigEndian.AppendUint16(buf, TagRecoveryWitness)
		return appendRecoveryWitnessBody(buf, m)
	case protocol.AccuseMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagAccuse)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = appendNodeID(buf, m.Accuser)
		return AppendEncode(buf, m.Witness)
	case protocol.ApproveMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagApprove)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = appendNodeID(buf, m.Accuser)
		buf = appendNodeID(buf, m.Voter)
		return appendBytes(buf, m.Sig), nil
	case protocol.EvictReqMsg:
		// Two frame layouts, one per evidence form; both decode to the
		// one struct.
		tag := TagEvictReq
		if m.Bitmap != nil {
			tag = TagAggEvictReq
		}
		buf = binary.BigEndian.AppendUint16(buf, tag)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = appendNodeID(buf, m.Accuser)
		var err error
		if buf, err = AppendEncode(buf, m.Witness); err != nil {
			return nil, err
		}
		if m.Bitmap != nil {
			buf = appendBytes(buf, m.Bitmap)
			return appendBytes(buf, m.Proof), nil
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Approvals)))
		for _, ap := range m.Approvals {
			if buf, err = AppendEncode(buf, ap); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case protocol.EvictPayload:
		buf = binary.BigEndian.AppendUint16(buf, TagEvictPayload)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = appendNodeID(buf, m.Evicted)
		buf = appendNodeID(buf, m.Successor)
		return AppendEncode(buf, m.Witness)
	case protocol.NewLeaderMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagNewLeader)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = appendNodeID(buf, m.Evicted)
		buf = appendNodeID(buf, m.Successor)
		return appendNodeID(buf, m.Referee), nil
	case protocol.PowMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagPow)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = appendNodeID(buf, m.Node)
		return AppendEncode(buf, m.Solution)
	case protocol.SemiComPayload:
		buf = binary.BigEndian.AppendUint16(buf, TagSemiComPayload)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		return AppendEncode(buf, m.Msg)
	case *protocol.Block:
		buf = binary.BigEndian.AppendUint16(buf, TagBlock)
		return appendBlockBody(buf, m)
	case protocol.BlockMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagBlockMsg)
		if m.Block == nil {
			return append(buf, 0), nil
		}
		buf = append(buf, 1)
		return AppendEncode(buf, m.Block)
	case protocol.UTXOFinalMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagUTXOFinal)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		buf = append(buf, m.Digest[:]...)
		return AppendEncode(buf, m.Result)
	case protocol.UTXOPayload:
		buf = binary.BigEndian.AppendUint16(buf, TagUTXOPayload)
		buf = binary.BigEndian.AppendUint64(buf, m.Committee)
		return append(buf, m.UTXO[:]...), nil
	case consensus.Propose:
		buf = binary.BigEndian.AppendUint16(buf, TagPropose)
		return appendProposeBody(buf, m)
	case consensus.Echo:
		buf = binary.BigEndian.AppendUint16(buf, TagEcho)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.SN)
		buf = append(buf, m.Digest[:]...)
		buf = appendNodeID(buf, m.Echoer)
		buf = appendBytes(buf, m.Sig)
		return AppendEncode(buf, m.Propose)
	case consensus.Confirm:
		buf = binary.BigEndian.AppendUint16(buf, TagConfirm)
		return appendConfirmBody(buf, m)
	case consensus.Witness:
		buf = binary.BigEndian.AppendUint16(buf, TagWitness)
		var err error
		if buf, err = AppendEncode(buf, m.A); err != nil {
			return nil, err
		}
		return AppendEncode(buf, m.B)
	case consensus.Result:
		buf = binary.BigEndian.AppendUint16(buf, TagResult)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.SN)
		buf = append(buf, m.Digest[:]...)
		var err error
		if buf, err = AppendEncode(buf, m.Payload); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Confirms)))
		for _, c := range m.Confirms {
			if buf, err = AppendEncode(buf, c); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case consensus.AggResult:
		buf = binary.BigEndian.AppendUint16(buf, TagAggResult)
		buf = binary.BigEndian.AppendUint64(buf, m.Round)
		buf = binary.BigEndian.AppendUint64(buf, m.SN)
		buf = append(buf, m.Digest[:]...)
		var err error
		if buf, err = AppendEncode(buf, m.Payload); err != nil {
			return nil, err
		}
		buf = appendBytes(buf, m.Bitmap)
		return appendBytes(buf, m.Proof), nil
	case committee.JoinRequest:
		buf = binary.BigEndian.AppendUint16(buf, TagJoinRequest)
		return AppendEncode(buf, m.Rec)
	case committee.MemListMsg:
		buf = binary.BigEndian.AppendUint16(buf, TagMemList)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Records)))
		var err error
		for _, rec := range m.Records {
			if buf, err = AppendEncode(buf, rec); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case committee.MemberRecord:
		buf = binary.BigEndian.AppendUint16(buf, TagMemberRecord)
		buf = appendNodeID(buf, m.Node)
		buf = appendBytes(buf, m.PK)
		buf = append(buf, m.Hash[:]...)
		return appendBytes(buf, m.Proof), nil
	case pow.Solution:
		buf = binary.BigEndian.AppendUint16(buf, TagSolution)
		buf = appendBytes(buf, m.PK)
		return binary.BigEndian.AppendUint64(buf, m.Nonce), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownType, v)
	}
}

// Encode is the allocate-and-encode convenience over SizeHint +
// AppendEncode: one exact-size buffer, no growth.
func Encode(v any) ([]byte, error) {
	n, err := SizeHint(v)
	if err != nil {
		return nil, err
	}
	buf, err := AppendEncode(make([]byte, 0, n), v)
	if err != nil {
		return nil, err
	}
	if len(buf) != n {
		return nil, fmt.Errorf("wire: SizeHint %d != encoded %d for %T", n, len(buf), v)
	}
	return buf, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendNodeID(buf []byte, id simnet.NodeID) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(id))
}

func appendNodes(buf []byte, ids []simnet.NodeID) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = appendNodeID(buf, id)
	}
	return buf
}

func appendVotes(buf []byte, v reputation.VoteVector) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = append(buf, byte(x+1))
	}
	return buf
}

func appendTxs(buf []byte, txs []*ledger.Tx) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(txs)))
	var err error
	for _, tx := range txs {
		if buf, err = AppendEncode(buf, tx); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendSemiComBody(buf []byte, m protocol.SemiComMsg) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	buf = binary.BigEndian.AppendUint64(buf, m.Committee)
	buf = append(buf, m.SemiCom[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Records)))
	var err error
	for _, rec := range m.Records {
		if buf, err = AppendEncode(buf, rec); err != nil {
			return nil, err
		}
	}
	return appendBytes(buf, m.Sig), nil
}

func appendRecoveryWitnessBody(buf []byte, m protocol.RecoveryWitness) ([]byte, error) {
	buf = appendString(buf, m.Kind)
	buf = binary.BigEndian.AppendUint64(buf, m.Committee)
	buf = appendString(buf, m.Phase)
	var err error
	if m.Equiv == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		if buf, err = AppendEncode(buf, *m.Equiv); err != nil {
			return nil, err
		}
	}
	if m.SemiCom == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		if buf, err = AppendEncode(buf, *m.SemiCom); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendProposeBody(buf []byte, m consensus.Propose) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	buf = binary.BigEndian.AppendUint64(buf, m.SN)
	buf = append(buf, m.Digest[:]...)
	var err error
	if buf, err = AppendEncode(buf, m.Payload); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.Size)))
	buf = appendNodeID(buf, m.Leader)
	return appendBytes(buf, m.Sig), nil
}

func appendConfirmBody(buf []byte, m consensus.Confirm) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	buf = binary.BigEndian.AppendUint64(buf, m.SN)
	buf = append(buf, m.Digest[:]...)
	buf = appendNodeID(buf, m.Confirmer)
	buf = appendBytes(buf, m.Sig)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.EchoSigs)))
	ids := make([]simnet.NodeID, 0, len(m.EchoSigs))
	for id := range m.EchoSigs {
		ids = append(ids, id)
	}
	simnet.SortNodeIDs(ids)
	for _, id := range ids {
		buf = appendNodeID(buf, id)
		buf = appendBytes(buf, m.EchoSigs[id])
	}
	return buf, nil
}

func appendBlockBody(buf []byte, b *protocol.Block) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, b.Round)
	var err error
	if buf, err = appendTxs(buf, b.Txs); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint64(buf, b.Fees)
	buf = append(buf, b.Randomness[:]...)
	buf = appendNodes(buf, b.NextReferee)
	buf = appendNodes(buf, b.NextLeaders)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.NextPartials)))
	for _, ps := range b.NextPartials {
		buf = appendNodes(buf, ps)
	}
	buf = appendSortedFloatMap(buf, b.Reputations)
	return appendSortedUintMap(buf, b.Rewards), nil
}

func appendSortedFloatMap(buf []byte, m map[string]float64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m[k]))
	}
	return buf
}

func appendSortedUintMap(buf []byte, m map[string]uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, m[k])
	}
	return buf
}
