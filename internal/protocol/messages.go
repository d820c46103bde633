package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Wire tags of the protocol's non-consensus messages.
const (
	TagTxList      = "TX_LIST"      // leader → committee: proposed TXList (§IV-C step 2)
	TagVote        = "VOTE"         // member → leader: vote vector (§IV-C step 3)
	TagIntraResult = "INTRA"        // leader → C_R: decided TXdecSET + VList
	TagSemiCom     = "SEMI_COM"     // leader → C_R and partial set (§IV-B step 1)
	TagSemiComOK   = "SEMI_COM_OK"  // C_R → key members: validated commitments
	TagInterFwd    = "INTER_FWD"    // leader i → leader j + C_j,partial
	TagInterResult = "INTER_RESULT" // leader j → leader i and C_R
	TagInterQuery  = "INTER_QUERY"  // §VIII-A: leader i asks leader j for validity preferences
	TagInterPref   = "INTER_PREF"   // §VIII-A: leader j's reply
	TagScoreResult = "SCORE"        // leader → C_R: decided ScoreList
	TagAccuse      = "ACCUSE"       // partial member → committee: impeachment
	TagApprove     = "APPROVE"      // member → accuser: impeachment vote
	TagEvictReq    = "EVICT_REQ"    // accuser → C_R: witness + vote certificate
	TagNewLeader   = "NEW_LEADER"   // C_R → committee: leader replaced (Algorithm 6)
	TagPow         = "POW"          // node → C_R: participation puzzle solution
	TagPVSSShare   = "PVSS_SHARE"   // C_R internal beacon traffic
	TagBlock       = "BLOCK"        // C_R → network, leaders → members
	TagUTXOFinal   = "UTXO_FINAL"   // leader → C_R: final shard UTXO digest
)

// Consensus instance sequence numbers. One consensus.Protocol per
// (committee, leader) multiplexes phases by sn.
const (
	snIntraBase    = 10   // + attempt: intra-committee TXdecSET instance
	snScore        = 2    // reputation ScoreList instance
	snUTXO         = 3    // final shard-UTXO instance
	snInterOutBase = 1000 // + target committee: consensus on TXList_{i,j} in C_i
	snInterInBase  = 2000 // + source committee: consensus on received list in C_j
	snSemiComBase  = 3000 // + committee: C_R validation of semi-commitments
	snEvictBase    = 4000 // + committee (+ generation·m for chained re-evictions): C_R eviction instance
	snBlock        = 5000 // C_R block instance
)

// The package's rows in the wire registry. Each message's layout method,
// next to its struct below, is its one wire description: the size a Send
// declares (wire.Size), the encoding and the decoder are that walk in the
// Coder's three modes, so adding a field is one line in one method.
func init() {
	wire.Register(TxListMsg.layout, wire.TagTxList)
	wire.Register(VoteMsg.layout, wire.TagVote)
	wire.Register((*IntraPayload).layout, wire.TagIntraPayload)
	wire.Register((*IntraResultMsg).layout, wire.TagIntraResult)
	wire.Register(SemiComMsg.layout, wire.TagSemiCom)
	wire.Register(SemiComOKMsg.layout, wire.TagSemiComOK)
	wire.Register((*InterFwdMsg).layout, wire.TagInterFwd)
	wire.Register((*InterResultMsg).layout, wire.TagInterResult)
	wire.Register(InterQueryMsg.layout, wire.TagInterQuery)
	wire.Register(InterPrefMsg.layout, wire.TagInterPref)
	wire.Register((*InterPayload).layout, wire.TagInterPayload)
	wire.Register(ScorePayload.layout, wire.TagScorePayload)
	wire.Register((*ScoreResultMsg).layout, wire.TagScoreResult)
	wire.Register(RecoveryWitness.layout, wire.TagRecoveryWitness)
	wire.Register(AccuseMsg.layout, wire.TagAccuse)
	wire.Register(ApproveMsg.layout, wire.TagApprove)
	wire.Register(EvictReqMsg.layout, wire.TagEvictReq)
	wire.Register(EvictPayload.layout, wire.TagEvictPayload)
	wire.Register(NewLeaderMsg.layout, wire.TagNewLeader)
	wire.Register(PowMsg.layout, wire.TagPow)
	wire.Register(SemiComPayload.layout, wire.TagSemiComPayload)
	wire.Register((*Block).layout, wire.TagBlock)
	wire.Register(BlockMsg.layout, wire.TagBlockMsg)
	wire.Register(UTXOFinalMsg.layout, wire.TagUTXOFinal)
	wire.Register(UTXOPayload.layout, wire.TagUTXOPayload)
}

// Field walks shared by several layouts: a list of tagged transactions, a
// node list, and a vote vector (one byte per vote, vote+1, so 0..2).

// TxList is a list of transactions as a message carries it. A list the
// program built holds its transactions. A list decoded from a frame holds
// the bytes it arrived as, checked at delivery (wire.Coder.Hold), and Txs
// decodes them for each reader that asks: a receiver that relays the list
// or checks a signature over it never decodes it, and a value shared by
// several receivers is never written. Both forms size, encode, sign and
// digest to the same bytes.
type TxList struct {
	txs  []*ledger.Tx
	held []byte
}

// TxsOf returns the list of txs, which the caller leaves unmodified from
// then on.
func TxsOf(txs ...*ledger.Tx) TxList { return TxList{txs: txs} }

// Txs returns the list's transactions: the ones it was built of, or a fresh
// decode of the bytes it arrived as, which nothing else holds.
func (l TxList) Txs() []*ledger.Tx {
	if l.held == nil {
		return l.txs
	}
	txs, err := ledger.ReadTxs(l.held)
	if err != nil {
		panic(fmt.Sprintf("protocol: a transaction list checked at delivery does not read: %v", err))
	}
	return txs
}

// txList walks a message's transaction list (ledger.TxSlice), held as its
// bytes when read.
func txList(c *wire.Coder, p *TxList) {
	if !c.Hold(&p.held, ledger.CheckTxSlice) {
		ledger.TxSlice(c, &p.txs)
	}
}

func nodeList(c *wire.Coder, p *[]simnet.NodeID) { wire.Slice(c, p, 4, wire.ID[simnet.NodeID]) }

func voteVector(c *wire.Coder, p *reputation.VoteVector) {
	wire.Slice(c, (*[]reputation.Vote)(p), 1, func(c *wire.Coder, v *reputation.Vote) {
		b := byte(*v + 1)
		c.U8(&b)
		if !c.Reading() {
			return
		}
		if b > 2 {
			c.Fail("vote")
		}
		*v = reputation.Vote(b) - 1
	})
}

// TxListMsg is the leader's transaction list broadcast.
type TxListMsg struct {
	Round     uint64
	Committee uint64
	Attempt   int // bumped when a recovered leader re-runs the phase
	Txs       TxList
	Sig       []byte
}

func (m TxListMsg) layout(c *wire.Coder) TxListMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	c.Int(&m.Attempt)
	txList(c, &m.Txs)
	c.Sig(&m.Sig)
	return m
}

// VoteMsg carries a member's votes, aligned with the TxListMsg order.
type VoteMsg struct {
	Round     uint64
	Committee uint64
	Attempt   int
	Voter     simnet.NodeID
	Votes     reputation.VoteVector
	Sig       []byte
}

func (m VoteMsg) layout(c *wire.Coder) VoteMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	c.Int(&m.Attempt)
	wire.ID(c, &m.Voter)
	voteVector(c, &m.Votes)
	c.Sig(&m.Sig)
	return m
}

// IntraPayload is the Algorithm 3 payload of the intra-committee phase:
// the decided transaction set and the full vote list (§IV-C step 4). It is
// proposed as a pointer, never written after, so the endpoints of one
// committee that are handed the same pointer digest it once (see
// consensus.VerifiedEchoes).
type IntraPayload struct {
	Txs    TxList
	Voters []simnet.NodeID
	Votes  []reputation.VoteVector
}

func (p *IntraPayload) layout(c *wire.Coder) *IntraPayload {
	if c.Reading() {
		p = new(IntraPayload)
	}
	txList(c, &p.Txs)
	nodeList(c, &p.Voters)
	wire.Slice(c, &p.Votes, 4, voteVector)
	if c.Reading() && len(p.Voters) != len(p.Votes) {
		c.Fail("vote list")
	}
	return p
}

// IntraResultMsg certifies a committee's intra-shard decision to C_R. It
// travels as a pointer, never written once sent, like the other carriers of
// a certificate (InterFwdMsg, InterResultMsg, ScoreResultMsg): a referee
// keeps the message it was handed rather than a copy of it.
type IntraResultMsg struct {
	Committee uint64
	Result    consensus.Result
	Members   []simnet.NodeID // the roster the certificate is checked against, as carried: nothing binds it yet (ROADMAP.md 2(iii))
}

func (m *IntraResultMsg) layout(c *wire.Coder) *IntraResultMsg {
	if c.Reading() {
		m = new(IntraResultMsg)
	}
	c.U64(&m.Committee)
	wire.Field(c, &m.Result)
	nodeList(c, &m.Members)
	return m
}

// SemiComMsg is the leader's semi-commitment announcement. Records is the
// member list S (sent to C_R and the partial set); SemiCom should equal
// H(S) for an honest leader.
type SemiComMsg struct {
	Round     uint64
	Committee uint64
	SemiCom   crypto.Digest
	Records   []committee.MemberRecord
	Sig       []byte
}

func (m SemiComMsg) layout(c *wire.Coder) SemiComMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	wire.Hash(c, &m.SemiCom)
	wire.Slice(c, &m.Records, 2, wire.Field[committee.MemberRecord])
	c.Sig(&m.Sig)
	return m
}

// ListDigest hashes the attached member list.
func (m SemiComMsg) ListDigest() crypto.Digest {
	return committee.SemiCommitmentOf(m.Records)
}

// SemiComOKMsg is C_R's announcement of the validated commitments to all
// key members. No later step of the round reads it, so a receiver keeps
// nothing of it: it is sent, delivered and counted as traffic.
type SemiComOKMsg struct {
	Round    uint64
	SemiComs map[uint64]crypto.Digest // committee → validated H(S)
}

func (m SemiComOKMsg) layout(c *wire.Coder) SemiComOKMsg {
	c.U64(&m.Round)
	wire.Map(c, &m.SemiComs, 8+32, func(c *wire.Coder, k uint64, d crypto.Digest) (uint64, crypto.Digest) {
		c.U64(&k)
		wire.Hash(c, &d)
		return k, d
	})
	return m
}

// InterFwdMsg carries a certified cross-shard transaction list from the
// input committee's leader to the output committee's key members (§IV-D).
type InterFwdMsg struct {
	Round   uint64
	From    uint64 // input committee i
	To      uint64 // output committee j
	Txs     TxList
	Cert    consensus.Result // C_i's Algorithm 3 certificate
	Members []simnet.NodeID  // C_i's roster as carried; Cert is checked against it, and nothing binds it to H(S_i) yet (ROADMAP.md 2(iii))
}

func (m *InterFwdMsg) layout(c *wire.Coder) *InterFwdMsg {
	if c.Reading() {
		m = new(InterFwdMsg)
	}
	c.U64(&m.Round)
	c.U64(&m.From)
	c.U64(&m.To)
	txList(c, &m.Txs)
	wire.Field(c, &m.Cert)
	nodeList(c, &m.Members)
	return m
}

// InterResultMsg reports C_j's agreement back to leader i and C_R.
type InterResultMsg struct {
	Round  uint64
	From   uint64
	To     uint64
	Result consensus.Result
}

func (m *InterResultMsg) layout(c *wire.Coder) *InterResultMsg {
	if c.Reading() {
		m = new(InterResultMsg)
	}
	c.U64(&m.Round)
	c.U64(&m.From)
	c.U64(&m.To)
	wire.Field(c, &m.Result)
	return m
}

// InterQueryMsg asks the receiving leader which of the candidate
// cross-shard transactions it deems valid (§VIII-A).
type InterQueryMsg struct {
	Round uint64
	From  uint64
	To    uint64
	Txs   TxList
}

func (m InterQueryMsg) layout(c *wire.Coder) InterQueryMsg {
	c.U64(&m.Round)
	c.U64(&m.From)
	c.U64(&m.To)
	txList(c, &m.Txs)
	return m
}

// InterPrefMsg is the receiving leader's validity preference, aligned with
// the query's transaction order.
type InterPrefMsg struct {
	Round uint64
	From  uint64
	To    uint64
	Valid []bool
}

func (m InterPrefMsg) layout(c *wire.Coder) InterPrefMsg {
	c.U64(&m.Round)
	c.U64(&m.From)
	c.U64(&m.To)
	wire.Slice(c, &m.Valid, 1, (*wire.Coder).Bool)
	return m
}

// InterPayload is the Algorithm 3 payload inside C_j for a received list,
// and inside C_i for the list it sends; a pointer, like IntraPayload.
type InterPayload struct {
	From uint64
	Txs  TxList
}

func (p *InterPayload) layout(c *wire.Coder) *InterPayload {
	if c.Reading() {
		p = new(InterPayload)
	}
	c.U64(&p.From)
	txList(c, &p.Txs)
	return p
}

// ScorePayload is the Algorithm 3 payload of the reputation phase: every
// member's score plus the underlying votes (§IV-E).
type ScorePayload struct {
	Members []simnet.NodeID
	Scores  []float64
}

func (p ScorePayload) layout(c *wire.Coder) ScorePayload {
	nodeList(c, &p.Members)
	wire.Slice(c, &p.Scores, 8, (*wire.Coder).F64)
	if c.Reading() && len(p.Members) != len(p.Scores) {
		c.Fail("score list")
	}
	return p
}

// ScoreResultMsg certifies a committee's score list to C_R.
type ScoreResultMsg struct {
	Committee uint64
	Result    consensus.Result
	Members   []simnet.NodeID
}

func (m *ScoreResultMsg) layout(c *wire.Coder) *ScoreResultMsg {
	if c.Reading() {
		m = new(ScoreResultMsg)
	}
	c.U64(&m.Committee)
	wire.Field(c, &m.Result)
	nodeList(c, &m.Members)
	return m
}

// RecoveryWitness is the evidence driving leader re-selection (§V-D).
// Kind "silence" extends the paper's provable-misbehaviour witnesses to
// crash faults: it carries no leader-signed evidence (Phase names the
// phase that went quiet), so it is never self-verifying — members vote on
// it only when their own view of the phase corroborates the silence, and
// the referee committee accepts it purely on the strength of the >c/2
// approval certificate.
type RecoveryWitness struct {
	Kind      string // "equivocation", "semicommit", or "silence"
	Committee uint64
	Phase     string // "silence" only: the phase the leader went quiet in
	Equiv     *consensus.Witness
	SemiCom   *SemiComMsg
}

func (w RecoveryWitness) layout(c *wire.Coder) RecoveryWitness {
	c.String(&w.Kind)
	c.U64(&w.Committee)
	c.String(&w.Phase)
	wire.Optional(c, &w.Equiv)
	wire.Optional(c, &w.SemiCom)
	return w
}

// Verify checks the witness against the accused leader's key in pki. A
// witness is valid only if it contains a leader-signed self-incriminating
// message (Claims 3 and 4). Silence witnesses always fail here — silence
// cannot be proven cryptographically; their call sites gate on local
// corroboration and the approval certificate instead.
func (w RecoveryWitness) Verify(pki *consensus.PKI, leader simnet.NodeID) bool {
	switch w.Kind {
	case "equivocation":
		return w.Equiv != nil && w.Equiv.Valid(pki, leader)
	case "semicommit":
		if w.SemiCom == nil {
			return false
		}
		if consensus.Verify(pki, leader, w.SemiCom.Sig, *w.SemiCom) != nil {
			return false
		}
		return w.SemiCom.ListDigest() != w.SemiCom.SemiCom
	default:
		return false
	}
}

// AccuseMsg starts an impeachment inside the committee.
type AccuseMsg struct {
	Round     uint64
	Committee uint64
	Accuser   simnet.NodeID
	Witness   RecoveryWitness
}

func (m AccuseMsg) layout(c *wire.Coder) AccuseMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	wire.ID(c, &m.Accuser)
	wire.Field(c, &m.Witness)
	return m
}

// ApproveMsg is a member's impeachment vote, signed.
type ApproveMsg struct {
	Round     uint64
	Committee uint64
	Accuser   simnet.NodeID
	Voter     simnet.NodeID
	Sig       []byte
}

func (m ApproveMsg) layout(c *wire.Coder) ApproveMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	wire.ID(c, &m.Accuser)
	wire.ID(c, &m.Voter)
	c.Sig(&m.Sig)
	return m
}

// EvictReqMsg is the accuser's escalation to C_R: the witness plus the >c/2
// approval certificate. Approvals holds the members' signatures only; the
// ApproveMsg each one signed is rebuilt from this header (approvals), so an
// approval counts only if it was signed for this round, committee and
// accuser.
type EvictReqMsg struct {
	Round     uint64
	Committee uint64
	Accuser   simnet.NodeID
	Witness   RecoveryWitness
	Approvals consensus.Quorum
}

func (m EvictReqMsg) layout(c *wire.Coder) EvictReqMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	wire.ID(c, &m.Accuser)
	wire.Field(c, &m.Witness)
	wire.Field(c, &m.Approvals)
	return m
}

// approvals returns Quorum.Verify's msgAt for this request: the signing
// bytes of the ApproveMsg a voter must have signed, built in one buffer
// reused across the voters.
func (m EvictReqMsg) approvals() func(voter simnet.NodeID) []byte {
	var buf []byte
	return func(voter simnet.NodeID) []byte {
		buf = wire.SigningBytes(buf[:0], ApproveMsg{Round: m.Round, Committee: m.Committee, Accuser: m.Accuser, Voter: voter})
		return buf
	}
}

// EvictPayload is C_R's Algorithm 3 payload deciding the replacement.
type EvictPayload struct {
	Committee uint64
	Evicted   simnet.NodeID
	Successor simnet.NodeID
	Witness   RecoveryWitness
}

func (p EvictPayload) layout(c *wire.Coder) EvictPayload {
	c.U64(&p.Committee)
	wire.ID(c, &p.Evicted)
	wire.ID(c, &p.Successor)
	wire.Field(c, &p.Witness)
	return p
}

// NewLeaderMsg informs committee members of the replacement.
type NewLeaderMsg struct {
	Round     uint64
	Committee uint64
	Evicted   simnet.NodeID
	Successor simnet.NodeID
	Referee   simnet.NodeID
}

func (m NewLeaderMsg) layout(c *wire.Coder) NewLeaderMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	wire.ID(c, &m.Evicted)
	wire.ID(c, &m.Successor)
	wire.ID(c, &m.Referee)
	return m
}

// PowMsg submits a participation-puzzle solution to C_R (§IV-F).
type PowMsg struct {
	Round    uint64
	Node     simnet.NodeID
	Solution pow.Solution
}

func (m PowMsg) layout(c *wire.Coder) PowMsg {
	c.U64(&m.Round)
	wire.ID(c, &m.Node)
	wire.Field(c, &m.Solution)
	return m
}

// SemiComPayload is C_R's Algorithm 3 payload validating one committee's
// semi-commitment.
type SemiComPayload struct {
	Committee uint64
	Msg       SemiComMsg
}

func (p SemiComPayload) layout(c *wire.Coder) SemiComPayload {
	c.U64(&p.Committee)
	wire.Field(c, &p.Msg)
	return p
}

// Block is the round's output (§IV-G).
type Block struct {
	Round        uint64
	Txs          TxList
	Fees         uint64
	Randomness   crypto.Digest // R_{r+1}
	NextReferee  []simnet.NodeID
	NextLeaders  []simnet.NodeID
	NextPartials [][]simnet.NodeID
	Reputations  Names[Score]  // every tracked node's reputation, ascending by name
	Rewards      Names[Reward] // this round's non-zero fee shares, ascending by name
}

// Score is one node's entry in a block's reputation list.
type Score struct {
	Name  string
	Value float64
}

// Reward is one node's entry in a block's reward list.
type Reward struct {
	Name   string
	Amount uint64
}

// Names is a block's score or reward list, strictly ascending by name. Like
// TxList, a list the program built holds its entries, and a list decoded
// from a frame holds the bytes it arrived as, checked at delivery with its
// name order, and List decodes them for each reader that asks. No receiver
// reads either list in a round, so a block's receivers build no string per
// tracked node.
type Names[T Score | Reward] struct {
	list []T
	held []byte
}

// NamesOf returns the list of entries, which the caller has sorted by name
// and leaves unmodified from then on.
func NamesOf[T Score | Reward](entries ...T) Names[T] { return Names[T]{list: entries} }

// List returns the list's entries: the ones it was built of, or a fresh
// decode of the bytes it arrived as, which nothing else holds.
func (l Names[T]) List() []T {
	if l.held == nil {
		return l.list
	}
	list, n, err := wire.ReadHeld(l.held, nameSlice[T])
	if err != nil || n != len(l.held) {
		panic(fmt.Sprintf("protocol: a name list of %d bytes checked at delivery reads %d of them: %v", len(l.held), n, err))
	}
	return list
}

// nameList walks a block's score or reward list, held as its bytes when
// read.
func nameList[T Score | Reward](c *wire.Coder, p *Names[T]) {
	if !c.Hold(&p.held, checkNameSlice[T]) {
		nameSlice(c, &p.list)
	}
}

// checkNameSlice is the check Hold runs: nameSlice, into a list it drops.
func checkNameSlice[T Score | Reward](c *wire.Coder) {
	var list []T
	nameSlice(c, &list)
}

// nameSlice walks a score or reward list: each entry's name, then its value.
// A read or check fails a list whose names do not strictly ascend, so each
// list has one encoding and decode → encode is exact. It compares the
// names' input bytes, which a check builds no string from.
func nameSlice[T Score | Reward](c *wire.Coder, p *[]T) {
	var prev []byte
	first := true
	wire.Slice(c, p, 4+8, func(c *wire.Coder, e *T) {
		var name []byte
		switch e := any(e).(type) {
		case *Score:
			name = c.String(&e.Name)
			c.F64(&e.Value)
		case *Reward:
			name = c.String(&e.Name)
			c.U64(&e.Amount)
		}
		if c.Reading() && !first && bytes.Compare(prev, name) >= 0 {
			c.Fail("name order")
		}
		prev, first = name, false
	})
}

func (b *Block) layout(c *wire.Coder) *Block {
	if c.Reading() {
		b = new(Block)
	}
	c.U64(&b.Round)
	txList(c, &b.Txs)
	c.U64(&b.Fees)
	wire.Hash(c, &b.Randomness)
	nodeList(c, &b.NextReferee)
	nodeList(c, &b.NextLeaders)
	wire.Slice(c, &b.NextPartials, 4, nodeList)
	nameList(c, &b.Reputations)
	nameList(c, &b.Rewards)
	return b
}

// BlockMsg propagates the decided block.
type BlockMsg struct {
	Block *Block
}

func (m BlockMsg) layout(c *wire.Coder) BlockMsg {
	present := m.Block != nil
	c.Bool(&present)
	if present {
		wire.Field(c, &m.Block)
	}
	return m
}

// UTXOFinalMsg reports a committee's end-of-round UTXO digest to C_R.
type UTXOFinalMsg struct {
	Round     uint64
	Committee uint64
	Digest    crypto.Digest
	Result    consensus.Result
}

func (m UTXOFinalMsg) layout(c *wire.Coder) UTXOFinalMsg {
	c.U64(&m.Round)
	c.U64(&m.Committee)
	wire.Hash(c, &m.Digest)
	wire.Field(c, &m.Result)
	return m
}

// UTXOPayload is the committee-level Algorithm 3 payload for the final
// UTXO agreement.
type UTXOPayload struct {
	Committee uint64
	UTXO      crypto.Digest
}

func (p UTXOPayload) layout(c *wire.Coder) UTXOPayload {
	c.U64(&p.Committee)
	wire.Hash(c, &p.UTXO)
	return p
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}
