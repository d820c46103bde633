package sim

import (
	"context"
	"iter"
	"sync"

	"cycledger/internal/chain"
	"cycledger/internal/ledger"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// Re-exported engine types, so facade users outside this module can name
// them without reaching into internal packages.
type (
	// RoundReport summarises one protocol round.
	RoundReport = protocol.RoundReport
	// RecoveryEvent records one completed leader re-selection.
	RecoveryEvent = protocol.RecoveryEvent
	// Behavior is a byzantine node's deviation profile.
	Behavior = protocol.Behavior
	// FaultsConfig describes the network fault model, a run's faults
	// field: message loss, beyond-bound lag, partition, churn, gray
	// failures, and the reactive adversary.
	FaultsConfig = protocol.FaultsConfig
	// PartitionSpec cuts the population in two groups until a heal tick.
	PartitionSpec = protocol.PartitionSpec
	// GraySpec gray-fails a node subset: they receive but never send.
	GraySpec = protocol.GraySpec
	// ChurnSpec crashes a node subset on a staggered periodic schedule.
	ChurnSpec = protocol.ChurnSpec
	// AdaptiveSpec arms the reactive adversary: a per-round budget re-aimed
	// at each round's leaders, successors, and deadline brackets.
	AdaptiveSpec = protocol.AdaptiveSpec
	// PhaseTimeout records a committee whose phase concluded by timeout.
	PhaseTimeout = protocol.PhaseTimeout
)

// Sim is a configured simulation. Create one with New; a Sim runs its
// rounds once (Run and Rounds share the same underlying progress) and is
// not safe for concurrent use.
type Sim struct {
	cfg Config
	eng *protocol.Engine
	err error // terminal engine error; poisons further iteration

	obsMu sync.Mutex
	obs   []Observer
}

// New builds a simulation from the default config plus opts, applied in
// order. The underlying engine is constructed eagerly, so configuration
// errors surface here, not at Run.
func New(opts ...Option) (*Sim, error) {
	b := &builder{cfg: DefaultConfig()}
	for _, o := range opts {
		if err := o(b); err != nil {
			return nil, err
		}
	}
	p, err := b.cfg.Params()
	if err != nil {
		return nil, err
	}
	eng, err := protocol.NewEngine(p)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: b.cfg, eng: eng, obs: b.obs}
	eng.SetHooks(protocol.Hooks{
		PhaseStart: s.firePhase,
		Recovery:   s.fireRecovery,
	})
	return s, nil
}

// Config returns the resolved configuration this simulation runs.
func (s *Sim) Config() Config { return s.cfg }

// Rounds returns a pull iterator over the run: each iteration executes
// one protocol round and yields its report (or a terminal error). The
// iterator stops after the configured number of rounds, on the first
// engine error, or — checked between rounds — when ctx is done, yielding
// ctx's error. Breaking out of the loop or cancelling the context pauses
// the run; iterating again resumes where it left off. An engine error is
// terminal: the round was partially executed, so the simulation is
// poisoned and every further iteration re-yields the same error instead
// of re-running the broken round.
func (s *Sim) Rounds(ctx context.Context) iter.Seq2[*RoundReport, error] {
	return func(yield func(*RoundReport, error) bool) {
		for len(s.eng.Reports()) < s.cfg.Rounds {
			if s.err != nil {
				yield(nil, s.err)
				return
			}
			if err := ctx.Err(); err != nil {
				yield(nil, err)
				return
			}
			rep, err := s.eng.RunRound()
			if err != nil {
				s.err = err
				yield(nil, err)
				return
			}
			s.fireRound(rep)
			if !yield(rep, nil) {
				return
			}
		}
	}
}

// Run executes all remaining configured rounds and returns the reports of
// every round completed so far — including rounds previously consumed via
// Rounds, so the result is always the whole run, not an increment. On
// error (including context cancellation) the reports of the rounds that
// did complete are returned alongside it.
func (s *Sim) Run(ctx context.Context) ([]*RoundReport, error) {
	for _, err := range s.Rounds(ctx) {
		if err != nil {
			return s.Reports(), err
		}
	}
	return s.Reports(), nil
}

// Reports returns the reports of the rounds completed so far.
func (s *Sim) Reports() []*RoundReport { return s.eng.Reports() }

// Close releases nothing and returns nil: neither transport holds a
// resource beyond the Sim's memory. It is kept for callers that defer it.
func (s *Sim) Close() error { return nil }

// Engine exposes the underlying protocol engine for uses the facade does
// not cover (roster inspection, chain re-verification, …).
func (s *Sim) Engine() *protocol.Engine { return s.eng }

// Reputation exposes the reputation ledger (§VII).
func (s *Sim) Reputation() *reputation.Ledger { return s.eng.Reputation() }

// UTXO exposes the sharded ledger state.
func (s *Sim) UTXO() ledger.Store { return s.eng.UTXO() }

// Chain returns the verified block store accumulated across rounds.
func (s *Sim) Chain() *chain.Chain { return s.eng.Chain() }

// TotalNodes returns the simulated population size n = m·c + |C_R|.
func (s *Sim) TotalNodes() int { return s.cfg.TotalNodes() }

// NameOf returns node id's stable identity string ("" out of range).
func (s *Sim) NameOf(id int) string { return s.eng.NameOf(simnet.NodeID(id)) }

// IsByzantine reports whether node id was assigned a byzantine behaviour.
func (s *Sim) IsByzantine(id int) bool { return s.eng.IsByzantine(simnet.NodeID(id)) }

// Leaders returns the current round's leader node IDs, indexed by
// committee.
func (s *Sim) Leaders() []int {
	leaders := s.eng.Roster().Leaders
	out := make([]int, len(leaders))
	for k, id := range leaders {
		out[k] = int(id)
	}
	return out
}
