// Package protocol wires every CycLedger phase (§III-E, §IV) into a
// running multi-committee simulation on top of the simnet substrate:
//
//	committee configuration → semi-commitment exchange → intra-committee
//	consensus → inter-committee consensus → reputation updating → referee/
//	leader/partial-set selection → block generation and propagation,
//
// with the leader re-selection (recovery) procedure of §V-D available in
// every phase. Nodes are state machines driven by simulated messages;
// byzantine nodes deviate according to explicit Behavior flags.
package protocol

import (
	"fmt"

	"cycledger/internal/consensus"
	"cycledger/internal/transport"
	"cycledger/internal/wire"
)

// Params configures a protocol simulation. It is also the run's JSON
// document (sim.Config is this type under the facade's name): every field
// carries its document name, in document order, and the three values a run
// selects by name are held as names — the byzantine behaviour (Behavior's
// text form), the signature scheme and the transport, which NewEngine
// resolves. No omitempty anywhere: a written document is a complete
// snapshot, able to reset any field when overlaid on another (an omitted
// zero would silently inherit whatever an earlier layer set).
type Params struct {
	M       int `json:"m"`        // number of ordinary committees (m)
	C       int `json:"c"`        // expected committee size including leader and partial set (c)
	Lambda  int `json:"lambda"`   // partial set size (λ)
	RefSize int `json:"ref_size"` // referee committee size |C_R|

	Rounds         int     `json:"rounds"`           // rounds to simulate
	TxPerCommittee int     `json:"tx_per_committee"` // transactions offered to each committee per round
	CrossFrac      float64 `json:"cross_frac"`       // fraction of cross-shard payments in the workload
	InvalidFrac    float64 `json:"invalid_frac"`     // fraction of invalid transactions injected

	// MaliciousFrac of all nodes follow ByzantineBehavior instead of the
	// honest protocol. Drawn uniformly unless CorruptLeaders forces the
	// adversary to spend its corruption budget on leader seats first
	// (the paper's worst case for liveness).
	MaliciousFrac     float64  `json:"malicious_frac"`
	ByzantineBehavior Behavior `json:"behavior"`
	CorruptLeaders    bool     `json:"corrupt_leaders"`

	// Scheme names the signature scheme: "hash" (fast, simulation-grade;
	// "" means the same) or "ed25519" (real signatures).
	Scheme      string `json:"scheme"`
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`  // simnet lanes; 0 = GOMAXPROCS
	PowHardness uint64 `json:"pow_hardness"` // expected hash attempts per participation puzzle

	// Transport names the network the round runs over: "sim" (the
	// deterministic simulator; "" means the same) or "live" (every payload
	// crossing between nodes as a frame of the wire codec, decoded by each
	// receiver). The engine's one simnet.Network schedules either way, so
	// reports are identical, fault models included.
	Transport string `json:"transport"`

	// DisableRecovery turns off the leader re-selection procedure —
	// the RapidChain-style baseline for the leader-fault experiment.
	DisableRecovery bool `json:"disable_recovery"`

	// PreScreenCross enables the §VIII-A extension: before packaging a
	// cross-shard list, the sending leader queries the receiving leader
	// for a validity preference and drops the transactions it flags,
	// saving the two full Algorithm 3 runs on lists that would mostly die
	// at the referee committee (e.g. under a DoS workload).
	PreScreenCross bool `json:"pre_screen_cross"`

	// Pipelined reports each round's latency under the paper's §IV
	// pipeline: the election track (participation PoW and the C_R beacon)
	// overlaps transaction processing, and a round's configuration
	// overlaps the previous block's propagation. It is a latency model,
	// not an executor: the round runs the same stages in the same order
	// either way, and every report field is identical except Duration,
	// which becomes the critical path of the overlapped schedule instead
	// of the sum of the phases.
	Pipelined bool `json:"pipelined"`

	// ParallelBlockGen enables the §VIII-B extension: committee members
	// evaluate transaction lists in order against a copy-on-write overlay
	// of the UTXO set, so a transaction spending an earlier transaction's
	// output in the same round can be accepted. In the original protocol
	// "at least one of them will be regarded as illegal".
	ParallelBlockGen bool `json:"parallel_block_gen"`

	// AggregateCerts is a sender-side choice with two effects. Decisions
	// leaving a committee — intra/score/inter results, the UTXO finality
	// vote — carry their certificate's consensus.Quorum in aggregate form
	// (one voter bitmap plus one constant-size aggregate proof) instead of
	// one signature per voter, and an eviction request carries its approval
	// set folded the same way. And committee broadcasts (transaction lists,
	// block propagation) fan out over a binomial dissemination tree, so
	// leader egress is O(log C) sends instead of O(C). Receivers never read
	// it: the messages are the same in both modes and a receiver accepts
	// whichever certificate form verifies. Requires a Scheme that
	// implements consensus.AggregateScheme ("hash"). Decisions, rewards,
	// and recoveries are unchanged — only traffic shape; the equivalence
	// is pinned by tests.
	AggregateCerts bool `json:"aggregate_certs"`

	// Faults injects a network fault model underneath the protocol:
	// message loss, beyond-bound lag, a healing partition, and periodic
	// node churn (see FaultsConfig); sweep axes address its fields by
	// dotted path, e.g. "faults.loss". The protocol's defences do not
	// depend on it: silence watchdogs and timeout verdicts run on every
	// network. nil, and any model that never acts, give byte-identical
	// runs.
	Faults *FaultsConfig `json:"faults"`
}

// schemes and transports register, by name, the values Params.Scheme and
// Params.Transport select; "" names each one's default. A nil codec is the
// simulator carrying payloads itself.
var (
	schemes = map[string]consensus.SignatureScheme{
		"":        consensus.HashScheme{},
		"hash":    consensus.HashScheme{},
		"ed25519": consensus.Ed25519Scheme{},
	}
	transports = map[string]transport.Codec{"": nil, "sim": nil, "live": wire.Codec{}}
)

// DefaultParams returns a small but fully-featured configuration: 4
// committees of 16 (λ = 3) plus a 9-member referee committee.
func DefaultParams() Params {
	return Params{
		M:              4,
		C:              16,
		Lambda:         3,
		RefSize:        9,
		Rounds:         3,
		TxPerCommittee: 30,
		CrossFrac:      1.0 / 3,
		Scheme:         "hash",
		Seed:           1,
		Parallelism:    1,
		PowHardness:    8,
		Transport:      "sim",
	}
}

// PaperScaleParams approximates the paper's headline setting: 2000 nodes,
// 20 committees, λ = 40. Heavy — used by opt-in benches only.
func PaperScaleParams() Params {
	p := DefaultParams()
	p.M = 20
	p.C = 97
	p.Lambda = 40
	p.RefSize = 60
	p.TxPerCommittee = 100
	return p
}

// Validate checks structural consistency.
func (p Params) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("protocol: need at least 1 committee")
	}
	if p.Lambda < 1 {
		return fmt.Errorf("protocol: partial set size must be ≥ 1")
	}
	if p.C < p.Lambda+2 {
		return fmt.Errorf("protocol: committee size %d too small for λ=%d (+leader+members)", p.C, p.Lambda)
	}
	if p.RefSize < 3 {
		return fmt.Errorf("protocol: referee committee size %d < 3", p.RefSize)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("protocol: rounds must be ≥ 1")
	}
	if p.TxPerCommittee < 0 {
		return fmt.Errorf("protocol: negative transactions per committee (%d)", p.TxPerCommittee)
	}
	if p.CrossFrac < 0 || p.CrossFrac > 1 {
		return fmt.Errorf("protocol: cross-shard fraction %v out of [0,1]", p.CrossFrac)
	}
	if p.InvalidFrac < 0 || p.InvalidFrac > 1 {
		return fmt.Errorf("protocol: invalid-transaction fraction %v out of [0,1]", p.InvalidFrac)
	}
	if p.MaliciousFrac < 0 || p.MaliciousFrac >= 1 {
		return fmt.Errorf("protocol: malicious fraction %v out of [0,1)", p.MaliciousFrac)
	}
	if p.MaliciousFrac > 0 && !p.ByzantineBehavior.IsByzantine() {
		// Corrupted nodes with the zero Behavior act honestly, so the run
		// would silently be indistinguishable from MaliciousFrac = 0.
		return fmt.Errorf("protocol: malicious fraction %v with an honest behavior (set ByzantineBehavior)", p.MaliciousFrac)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("protocol: negative parallelism (%d)", p.Parallelism)
	}
	if p.PowHardness < 1 {
		// The puzzle needs at least one expected attempt; a zero is a
		// forgotten field, not a request for the default.
		return fmt.Errorf("protocol: pow_hardness must be ≥ 1")
	}
	if p.Seed == 0 {
		// A zero seed is almost always a forgotten field, and it would
		// silently collide with every other zero-seeded run; require an
		// explicit choice (DefaultParams uses 1).
		return fmt.Errorf("protocol: seed must be non-zero (set an explicit simulation seed)")
	}
	if err := p.CheckNames(); err != nil {
		return err
	}
	if p.AggregateCerts {
		if _, ok := schemes[p.Scheme].(consensus.AggregateScheme); !ok {
			return fmt.Errorf("protocol: AggregateCerts requires a scheme implementing consensus.AggregateScheme (got %q)", p.Scheme)
		}
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// CheckNames reports a Scheme or Transport that names nothing. Validate
// runs it, and so does decoding a run document; a Behavior checks its own
// name as it decodes.
func (p Params) CheckNames() error {
	if _, ok := schemes[p.Scheme]; !ok {
		return fmt.Errorf("protocol: unknown signature scheme %q (want hash or ed25519)", p.Scheme)
	}
	if _, ok := transports[p.Transport]; !ok {
		return fmt.Errorf("protocol: unknown transport %q (want sim or live)", p.Transport)
	}
	return nil
}

// TotalNodes returns the node count n = m·c + |C_R|.
func (p Params) TotalNodes() int { return p.M*p.C + p.RefSize }
