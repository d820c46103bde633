// Package sim is CycLedger's public simulation facade: one entry point
// that every binary, example, and test builds on instead of hand-wiring
// protocol.Params. The facade adds nothing to the engine's semantics — a
// sim run is byte-identical to driving protocol.NewEngine with the
// equivalent Params (enforced per scenario by TestScenarioGolden).
//
// # Building a simulation
//
// A simulation is assembled with functional options, applied in order
// with later options overriding earlier ones:
//
//	s, err := sim.New(
//		sim.WithTopology(8, 20, 4, 15),          // m committees of c, partial sets of λ, |C_R|
//		sim.WithRounds(5),
//		sim.WithWorkload(50, 0.4, 0),            // tx/committee, cross fraction, invalid fraction
//		sim.WithAdversary(0.1, "conceal", true), // corrupted fraction, behaviour, leaders first
//		sim.WithSeed(42),
//	)
//
// The full option set: WithTopology, WithRounds, WithWorkload,
// WithAdversary, WithSeed, WithScheme ("hash" or "ed25519"), WithPipeline
// (§IV pipelined round latency plus the worker-pool size),
// WithPowHardness, WithRecovery (§V-D leader re-selection on/off),
// WithPreScreenCross (§VIII-A), WithParallelBlockGen (§VIII-B),
// WithFaults (network fault model: loss, lag, partition, churn;
// silence-triggered leader recovery and per-phase timeout verdicts run on
// every network, so the zero model and any model that never acts are
// byte-identical to the fault-free engine), WithObserver, FromConfig, and
// FromJSON. Resolve applies options without building, yielding the Config
// a run would use.
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
// The scenario registry names the paper's experiments as data. Lookup
// retrieves a preset by name, List enumerates them, Register adds
// project-local ones (names must be unique), and Scenario.New builds a
// run, optionally specialised by extra options applied over the preset:
//
//	scen, _ := sim.Lookup("leader-fault")
//	s, err := scen.New(sim.WithRounds(1))
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
// Parallelism, sequential or pipelined. The
// sim/sweep subpackage builds on that to expand parameter grids over
// Config, execute them on a worker pool, and aggregate statistics across
// replicate seeds.
package sim
