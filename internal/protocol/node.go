package protocol

import (
	"slices"
	"sync"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// Node is one protocol participant: a state machine driven by simulated
// messages. What it knows beyond its own state is its view; it never reads
// the engine. The engine reads nodes, between phases (after the network is
// idle), so parallel event execution is safe.
type Node struct {
	ID       simnet.NodeID
	Keys     crypto.KeyPair
	Behavior Behavior

	pki *consensus.PKI // every node's key, under the run's scheme (§III-A)
	view

	// seat is the Algorithm 1 result that made this node a common member
	// of the roster that last seated it that way (Engine.seatCommon); the
	// configuration phase of that roster's round presents its proof.
	seat committee.SortitionResult

	// This round's place in the roster, installed by resetRound: role,
	// committee and acting leader. committeePeers and consBuf keep their
	// arrays across rounds.
	role           Role
	comID          uint64
	curLeader      simnet.NodeID
	committeeNodes []simnet.NodeID
	committeePeers []simnet.NodeID       // committeeNodes without this node, in order
	consBuf        []*consensus.Protocol // the array cons appends into, every entry nil

	roundState
}

// view is what a node is handed rather than learns: the run's parameters,
// the latency bounds, the UTXO state it validates against, the round's
// shared echo sets, and the roster that seated it this round (installed by
// resetRound; the round number and randomness are the roster's).
type view struct {
	P      *Params // the engine's: an edit made after NewEngine reaches every node
	lat    simnet.Latency
	utxo   ledger.UTXOView
	echoes *echoSets
	roster *Roster
}

// echoSets holds the round's verified echoes per instance leader, shared by
// every node's endpoint for that leader. consFor runs on the simnet lanes,
// concurrently, so mu guards the lazy creation of an entry; RunRound drops
// the sets when the round ends.
type echoSets struct {
	mu   sync.Mutex
	sets map[simnet.NodeID]*consensus.VerifiedEchoes
}

// of returns the round's verified-echo set for the instances leader leads,
// creating it on first use.
func (s *echoSets) of(round uint64, leader simnet.NodeID) *consensus.VerifiedEchoes {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.sets[leader]
	if v == nil {
		v = consensus.NewVerifiedEchoes(round, leader)
		s.sets[leader] = v
	}
	return v
}

// roundState is everything a node learns during one round. resetRound
// installs a fresh value at round start and RunRound sets it to the zero
// value once the round's block is appended, so a finished round keeps
// nothing the next one does not read. Its maps start nil and are made on
// first write (put): most nodes write few of them in a round.
type roundState struct {
	cfg  *committee.ConfigNode
	cons []*consensus.Protocol // this round's endpoints, at most one per instance leader

	// Intra-committee phase.
	leaderTxs     []*ledger.Tx                            // engine-primed TXList (leader seat)
	gotTxList     bool                                    // member: a list from the acting leader arrived
	txListAttempt int                                     // member: the Attempt of the latest one
	votes         map[simnet.NodeID]reputation.VoteVector // leader: collected votes
	voteOrder     []simnet.NodeID
	intraDecided  *IntraPayload // leader: Algorithm 3 outcome

	// Semi-commitment phase.
	semiComHeard   bool                 // partial member: the leader's announcement arrived
	localDirectory *committee.Directory // S as assembled from the config phase

	// Inter-committee phase.
	interOut        map[uint64][]*ledger.Tx // leader i: lists per target committee
	interOutStarted map[uint64]bool         // leader i: consensus already started per target
	interFwds       map[uint64]*InterFwdMsg // leader/partial j: received per source
	screened        int                     // leader i: cross-shard txs dropped by §VIII-A pre-screening

	// Recovery.
	myApprovals  []consensus.Vote                         // as accuser
	myAccusation *AccuseMsg                               // as accuser
	escalated    bool                                     // EvictReq already sent
	leaderVotes  map[simnet.NodeID]map[simnet.NodeID]bool // successor → approving referees
	accusedOnce  map[string]bool                          // (kind, phase, accused leader) motions already raised

	// Silence-watchdog observations (faults.go / watchdog.go). leaderHeard
	// is deliberately sticky across leader switches: it means "some leader
	// of this committee was heard this round", which is what lets common
	// members corroborate round-start silence without being able to frame
	// a live successor they have no channel to (see silenceCorroborated).
	leaderHeard bool
	scoreSeen   bool

	// Referee-committee state.
	crSemiComs map[uint64]bool // committees whose announcement arrived
	crIntra    map[uint64]*IntraResultMsg
	crInter    map[[2]uint64]*InterResultMsg // keyed (from, to)
	crScores   map[uint64]*ScoreResultMsg
	crPow      map[simnet.NodeID]bool
	crEvicted  map[uint64]*EvictPayload
	crEvictGen map[uint64]uint64 // coordinator: evictions already proposed per committee
	crBlock    *Block            // the certified block, re-served to successors

	// Block phase: the round block reached this node. The block itself is
	// forwarded, not kept.
	gotBlock bool
}

// resetRound installs the round's roster, the node's seat on it and a
// fresh round state.
func (n *Node) resetRound(r *Roster) {
	n.roster = r
	n.role = r.RoleOf(n.ID)
	n.comID = 0
	if k, ok := r.CommitteeOf(n.ID); ok {
		n.comID = k
		n.curLeader = r.Leaders[k]
		n.committeeNodes = r.Committee(k)
		n.committeePeers = without(n.committeePeers[:0], n.committeeNodes, n.ID)
	} else {
		n.curLeader = -1
		n.committeeNodes, n.committeePeers = nil, nil
	}
	n.roundState = roundState{cons: n.consBuf[:0]}
}

// put sets (*m)[k] = v, making the map on its first write.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// without appends ids to buf, leaving out skip, and returns it.
func without(buf, ids []simnet.NodeID, skip simnet.NodeID) []simnet.NodeID {
	for _, id := range ids {
		if id != skip {
			buf = append(buf, id)
		}
	}
	return buf
}

// committeeSize is C for quorum computations.
func (n *Node) committeeSize() int { return len(n.committeeNodes) }

// consFor returns (creating lazily) the consensus endpoint for instances
// led by `leader`. Legitimacy: referee members accept any referee member
// as instance coordinator; committee members accept their current leader,
// and partial-set members as fallback proposers (restricted by sn range in
// validatePayload).
func (n *Node) consFor(leader simnet.NodeID) *consensus.Protocol {
	for _, p := range n.cons {
		if p.Leader == leader {
			return p
		}
	}
	var roster []simnet.NodeID
	switch {
	case n.role == RoleReferee:
		if n.roster.RoleOf(leader) != RoleReferee {
			return nil
		}
		roster = n.roster.Referee
	case n.role == RoleIdle:
		return nil
	default:
		if !n.legitimateCommitteeLeader(leader) {
			return nil
		}
		roster = n.committeeNodes
	}
	p := &consensus.Protocol{
		Round:     n.roster.Round,
		Self:      n.ID,
		Leader:    leader,
		Committee: roster,
		Keys:      n.Keys,
		PKOf:      n.pki.PK,
		Scheme:    n.pki.Scheme,
		Echoes:    n.echoes.of(n.roster.Round, leader),
		OnDecide: func(ctx *simnet.Context, res consensus.Result) {
			n.onConsensusDecide(ctx, res)
		},
		OnAccept: func(ctx *simnet.Context, sn uint64, d crypto.Digest, payload any) {
			n.onConsensusAccept(ctx, sn, d, payload)
		},
		OnEquivocation: func(ctx *simnet.Context, w consensus.Witness) {
			n.onEquivocation(ctx, leader, w)
		},
		ValidatePayload: func(sn uint64, payload any) bool {
			return n.validatePayload(leader, sn, payload)
		},
	}
	n.cons = append(n.cons, p)
	return p
}

func (n *Node) legitimateCommitteeLeader(leader simnet.NodeID) bool {
	if leader == n.curLeader {
		return true
	}
	for _, id := range n.roster.Partials[n.comID] {
		if id == leader {
			return true
		}
	}
	return false
}

// validatePayload vets proposals before echoing (honest nodes only; the
// simulator's byzantine members deviate through Behavior, not here).
func (n *Node) validatePayload(leader simnet.NodeID, sn uint64, payload any) bool {
	if n.role == RoleReferee {
		switch p := payload.(type) {
		case SemiComPayload:
			// §IV-B step 2: referee members check the semi-commitment
			// matches the attached member list before endorsing it.
			return p.Msg.ListDigest() == p.Msg.SemiCom
		case EvictPayload:
			// A silence witness has no signed evidence to re-check; the
			// coordinator verified its >c/2 approval certificate before
			// proposing the eviction (onEvictReq).
			if p.Witness.Kind == "silence" {
				return true
			}
			return p.Witness.Verify(n.pki, p.Evicted)
		default:
			return true
		}
	}
	// Fallback proposers (partial set) are only entitled to drive
	// inter-committee incoming instances (Lemma 7 liveness path).
	if leader != n.curLeader {
		if sn < snInterInBase || sn >= snInterInBase+n.roster.M {
			return false
		}
	}
	switch p := payload.(type) {
	case *InterPayload:
		return n.checkInterPayload(p)
	case *IntraPayload:
		return len(p.Voters) == len(p.Votes)
	case ScorePayload:
		// C_R applies a certified score list entry by entry: every entry
		// must name a member of this committee, and none twice.
		if len(p.Members) != len(p.Scores) {
			return false
		}
		for i, id := range p.Members {
			if !slices.Contains(n.committeeNodes, id) || slices.Contains(p.Members[:i], id) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// checkInterPayload structurally validates a cross-shard list proposed
// inside the receiving committee: it must match a certified InterFwdMsg
// this node has seen, or at minimum be non-malformed.
func (n *Node) checkInterPayload(p *InterPayload) bool {
	fwd, ok := n.interFwds[p.From]
	if !ok {
		// Common members do not receive InterFwd directly; they rely on
		// the certificate checks done by key members and the quorum.
		return true
	}
	want, got := fwd.Txs.Txs(), p.Txs.Txs()
	if len(want) != len(got) {
		return false
	}
	for i := range got {
		if want[i].ID() != got[i].ID() {
			return false
		}
	}
	return true
}

// Handle is the node's simnet handler.
func (n *Node) Handle(ctx *simnet.Context, msg simnet.Message) {
	if n.Behavior.Offline {
		return
	}
	// Silence-watchdog observation: any delivery from the current leader
	// proves it alive this round (node-local, never affects traffic).
	if msg.From == n.curLeader {
		n.leaderHeard = true
	}
	// Consensus traffic routes by instance leader.
	switch msg.Tag {
	case consensus.TagPropose:
		if prop, ok := msg.Payload.(consensus.Propose); ok {
			if prop.SN == snScore && prop.Leader == n.curLeader {
				n.scoreSeen = true
			}
			if p := n.consFor(prop.Leader); p != nil {
				p.Handle(ctx, msg)
			}
		}
		return
	case consensus.TagEcho:
		if e, ok := msg.Payload.(consensus.Echo); ok {
			// An echo names the leader-signed digest it endorses, so it
			// counts as a score observation even when the direct copy was
			// lost.
			if e.SN == snScore && e.Leader == n.curLeader {
				n.scoreSeen = true
			}
			if p := n.consFor(e.Leader); p != nil {
				p.Handle(ctx, msg)
			}
		}
		return
	case consensus.TagFetch:
		if f, ok := msg.Payload.(consensus.Fetch); ok {
			if p := n.consFor(f.Leader); p != nil {
				p.Handle(ctx, msg)
			}
		}
		return
	case consensus.TagConfirm:
		if p := n.consFor(n.ID); p != nil {
			p.Handle(ctx, msg)
		}
		return
	}
	// Committee configuration traffic.
	if n.cfg != nil && n.cfg.Handle(ctx, msg) {
		return
	}
	switch msg.Tag {
	case TagTxList:
		if m, ok := msg.Payload.(TxListMsg); ok {
			n.onTxList(ctx, m, msg.Size)
		}
	case TagVote:
		if m, ok := msg.Payload.(VoteMsg); ok {
			n.onVote(ctx, m, msg.From)
		}
	case TagSemiCom:
		if m, ok := msg.Payload.(SemiComMsg); ok {
			n.onSemiCom(ctx, m, msg.From)
		}
	case TagIntraResult:
		if m, ok := msg.Payload.(*IntraResultMsg); ok {
			n.onIntraResult(ctx, m)
		}
	case TagInterFwd:
		if m, ok := msg.Payload.(*InterFwdMsg); ok {
			n.onInterFwd(ctx, m)
		}
	case TagInterResult:
		if m, ok := msg.Payload.(*InterResultMsg); ok {
			n.onInterResult(ctx, m)
		}
	case TagInterQuery:
		if m, ok := msg.Payload.(InterQueryMsg); ok {
			n.onInterQuery(ctx, m)
		}
	case TagInterPref:
		if m, ok := msg.Payload.(InterPrefMsg); ok {
			n.onInterPref(ctx, m)
		}
	case TagScoreResult:
		if m, ok := msg.Payload.(*ScoreResultMsg); ok {
			n.onScoreResult(ctx, m)
		}
	case TagAccuse:
		if m, ok := msg.Payload.(AccuseMsg); ok {
			n.onAccuse(ctx, m)
		}
	case TagApprove:
		if m, ok := msg.Payload.(ApproveMsg); ok {
			n.onApprove(ctx, m)
		}
	case TagEvictReq:
		if m, ok := msg.Payload.(EvictReqMsg); ok {
			n.onEvictReq(ctx, m)
		}
	case TagNewLeader:
		if m, ok := msg.Payload.(NewLeaderMsg); ok {
			n.onNewLeader(ctx, m, msg.From)
		}
	case TagPow:
		if m, ok := msg.Payload.(PowMsg); ok {
			n.onPow(ctx, m, msg.From)
		}
	case TagBlock:
		if m, ok := msg.Payload.(BlockMsg); ok {
			n.onBlock(ctx, m, msg.Size)
		}
	case TagUTXOFinal:
		if m, ok := msg.Payload.(UTXOFinalMsg); ok {
			n.onUTXOFinal(ctx, m)
		}
	}
}
