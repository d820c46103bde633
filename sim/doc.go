// Package sim is CycLedger's public simulation facade: one entry point
// that every binary, example, and test builds on instead of hand-wiring
// protocol.Params. The facade adds nothing to the engine's semantics — a
// sim run is byte-identical to driving protocol.NewEngine with the
// equivalent Params, and both reproduce each built-in scenario's committed
// report golden (TestScenarioGolden).
//
// # Building a simulation
//
// A run is one document, Config, and each of its fields is set one way: by
// assigning it, or by overlaying a JSON document that names it. New starts
// from DefaultConfig and applies its options in order, later options
// overriding earlier ones:
//
//	cfg := sim.DefaultConfig()
//	cfg.M, cfg.C, cfg.Lambda, cfg.RefSize = 8, 20, 4, 15 // m committees of c, partial sets of λ, |C_R|
//	cfg.Rounds, cfg.Seed = 5, 42
//	s, err := sim.New(sim.FromConfig(cfg))
//
// is the same run as the document a -config file or a bench workload holds:
//
//	s, err := sim.New(sim.FromJSON([]byte(`{"m": 8, "c": 20, "lambda": 4, "ref_size": 15, "rounds": 5, "seed": 42}`)))
//
// The options are FromConfig (replace the document), FromJSON (overlay the
// fields it names) and WithObserver (attach callbacks, which no document
// holds). The network fault model is the faults field (loss,
// lag, partition, churn); silence-triggered leader recovery and per-phase
// timeout verdicts run on every network, so the zero model and any model
// that never acts are byte-identical to the fault-free engine. Resolve
// applies options without building, yielding the Config a run would use.
//
// Configuration is pure data: Config is protocol.Params itself, the one
// run description, holding the behaviour, scheme and transport as names.
// It round-trips through JSON (Config.ToJSON, ParseConfig, FromJSON —
// overlay semantics; an unknown field or name fails as the document
// decodes), and Config.Params is a conversion. New constructs the engine
// eagerly, so configuration errors surface at New, not at Run.
//
// # Scenarios
//
// The scenario registry, a fixed table, names the paper's experiments as
// data. Lookup retrieves a preset by name, List enumerates them, and
// Scenario.New builds a run, optionally specialised by extra options
// applied over the preset; a project-local experiment is a Scenario value
// or a run document, not a registry entry:
//
//	scen, _ := sim.Lookup("leader-fault")
//	s, err := scen.New(sim.FromJSON([]byte(`{"rounds": 1}`)))
//
// # Running: Run and the Rounds iterator
//
// Rounds returns a pull iterator (iter.Seq2) over the run: each iteration
// executes one protocol round and yields its report, stopping after the
// configured rounds, on the first engine error, or — checked between
// rounds — when the context is done (yielding the context's error).
// Breaking out of the loop or cancelling the context pauses the run;
// iterating again resumes where it left off. An engine error is terminal:
// the round was partially executed, so the simulation is poisoned and
// every further iteration re-yields the same error instead of re-running
// the broken round.
//
// Run drains the iterator and returns the reports of every round
// completed so far — including rounds previously consumed via Rounds, so
// the result is always the whole run, not an increment. A Sim runs its
// rounds once (Run and Rounds share the same underlying progress) and is
// not safe for concurrent use; distinct Sims are independent and may run
// concurrently (the sweep package's worker pool relies on this).
//
// # Observers
//
// WithObserver attaches an Observer: OnPhase fires when a network phase
// starts driving traffic, OnRecovery for each decided leader eviction,
// OnRound after each completed round. Callbacks run synchronously, in
// order, on the goroutine driving the run, Pipelined or not, and the
// facade serialises them under one mutex. They sit on the engine's
// critical path; keep them short. Funcs adapts plain functions to the
// interface.
//
// # Determinism and sweeps
//
// Runs with equal Configs (including Seed) are byte-identical at any
// Parallelism and over either transport, sequential or pipelined. The
// sim/sweep subpackage builds on that to expand parameter grids over
// Config, execute them on a worker pool, and aggregate statistics across
// replicate seeds.
package sim
