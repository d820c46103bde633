package sim

import "cycledger/internal/protocol"

// An Observer watches a run in flight. Callbacks run synchronously, in
// order, on the goroutine driving the run (the caller of Run or of the
// Rounds iterator), Pipelined or not, and the facade serialises them
// under one mutex. They sit on the engine's critical path; keep them
// short.
type Observer interface {
	// OnPhase fires when a network phase (config, semicommit, intra,
	// inter, score, select, block) starts driving traffic.
	OnPhase(round uint64, phase string)
	// OnRound fires after a round completes, with its finished report.
	OnRound(r *RoundReport)
	// OnRecovery fires for each decided leader eviction, as it happens —
	// before the round's OnRound.
	OnRecovery(ev RecoveryEvent)
}

// Funcs adapts plain functions to the Observer interface; nil fields are
// skipped. The zero value observes nothing.
type Funcs struct {
	Phase    func(round uint64, phase string)
	Round    func(r *RoundReport)
	Recovery func(ev RecoveryEvent)
}

// OnPhase implements Observer.
func (f Funcs) OnPhase(round uint64, phase string) {
	if f.Phase != nil {
		f.Phase(round, phase)
	}
}

// OnRound implements Observer.
func (f Funcs) OnRound(r *RoundReport) {
	if f.Round != nil {
		f.Round(r)
	}
}

// OnRecovery implements Observer.
func (f Funcs) OnRecovery(ev RecoveryEvent) {
	if f.Recovery != nil {
		f.Recovery(ev)
	}
}

func (s *Sim) firePhase(round uint64, phase string) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	for _, o := range s.obs {
		o.OnPhase(round, phase)
	}
}

func (s *Sim) fireRound(r *protocol.RoundReport) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	for _, o := range s.obs {
		o.OnRound(r)
	}
}

func (s *Sim) fireRecovery(ev protocol.RecoveryEvent) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	for _, o := range s.obs {
		o.OnRecovery(ev)
	}
}
