package sim

import "cycledger/internal/protocol"

// builder accumulates the effect of the options handed to New: a Config
// (pure data, serialisable) plus the runtime-only attachments (observers).
type builder struct {
	cfg Config
	obs []Observer
}

// An Option mutates the simulation under construction. Options apply in
// order, later options overriding earlier ones, so a scenario's preset can
// be specialised by appending overrides.
type Option func(*builder) error

// WithTopology sets the committee geometry: m ordinary committees of
// expected size c with partial sets of λ, plus a referee committee of
// refSize.
func WithTopology(m, c, lambda, refSize int) Option {
	return func(b *builder) error {
		b.cfg.M, b.cfg.C, b.cfg.Lambda, b.cfg.RefSize = m, c, lambda, refSize
		return nil
	}
}

// WithRounds sets how many rounds Run simulates.
func WithRounds(n int) Option {
	return func(b *builder) error { b.cfg.Rounds = n; return nil }
}

// WithWorkload shapes the traffic: txPerCommittee transactions offered to
// each committee per round, of which crossFrac are cross-shard payments
// and invalidFrac are injected invalid transactions.
func WithWorkload(txPerCommittee int, crossFrac, invalidFrac float64) Option {
	return func(b *builder) error {
		b.cfg.TxPerCommittee = txPerCommittee
		b.cfg.CrossFrac = crossFrac
		b.cfg.InvalidFrac = invalidFrac
		return nil
	}
}

// WithAdversary corrupts frac of the population with the named behaviour
// (see ParseBehavior; names compose with commas, e.g.
// "equivocate,conceal"). With corruptLeaders the corruption budget is
// spent on the bootstrap leader seats first — the paper's worst case for
// liveness.
func WithAdversary(frac float64, behavior string, corruptLeaders bool) Option {
	return func(b *builder) error {
		bh, err := ParseBehavior(behavior)
		if err != nil {
			return err
		}
		b.cfg.MaliciousFrac = frac
		b.cfg.ByzantineBehavior = bh
		b.cfg.CorruptLeaders = corruptLeaders
		return nil
	}
}

// WithSeed fixes the simulation seed (must be non-zero; runs with equal
// configs and seeds are byte-identical).
func WithSeed(seed int64) Option {
	return func(b *builder) error { b.cfg.Seed = seed; return nil }
}

// WithScheme selects the signature scheme by name: "hash" (fast,
// simulation-grade) or "ed25519" (real signatures).
func WithScheme(name string) Option {
	return func(b *builder) error {
		b.cfg.Scheme = name
		return protocol.Params(b.cfg).CheckNames()
	}
}

// WithPipeline sets how rounds are timed and run: pipelined reports each
// round's Duration under §IV's election/processing overlap instead of as
// the sum of its phases, and parallelism sizes the simnet lanes and the
// CPU worker pool (0 = GOMAXPROCS). Neither changes any other report
// field.
func WithPipeline(pipelined bool, parallelism int) Option {
	return func(b *builder) error {
		b.cfg.Pipelined = pipelined
		b.cfg.Parallelism = parallelism
		return nil
	}
}

// WithTransport selects the network the engine runs over: "sim" (the
// deterministic simulator, the default) or "live" (real concurrent node
// processes exchanging wire-encoded frames through mailboxes). Live runs
// produce reports identical to sim runs, fault models included: both are
// scheduled by the one simnet. Close the simulation after a live run to
// tear the node processes down.
func WithTransport(name string) Option {
	return func(b *builder) error {
		b.cfg.Transport = name
		return protocol.Params(b.cfg).CheckNames()
	}
}

// WithPowHardness sets the expected hash attempts per participation
// puzzle (0 keeps the engine default).
func WithPowHardness(h uint64) Option {
	return func(b *builder) error { b.cfg.PowHardness = h; return nil }
}

// WithRecovery toggles the §V-D leader re-selection procedure; disabling
// it yields the RapidChain-style baseline of the leader-fault experiment.
func WithRecovery(enabled bool) Option {
	return func(b *builder) error { b.cfg.DisableRecovery = !enabled; return nil }
}

// WithPreScreenCross toggles the §VIII-A extension: sending leaders query
// receiving leaders before packaging cross-shard lists and drop
// transactions flagged invalid — the DoS pre-screening defence.
func WithPreScreenCross(on bool) Option {
	return func(b *builder) error { b.cfg.PreScreenCross = on; return nil }
}

// WithParallelBlockGen toggles the §VIII-B extension: committees validate
// transaction lists against a copy-on-write overlay so same-round
// dependent transactions can both be accepted.
func WithParallelBlockGen(on bool) Option {
	return func(b *builder) error { b.cfg.ParallelBlockGen = on; return nil }
}

// WithAggregateCerts toggles aggregate phase certificates (one bitmap +
// constant-size proof instead of per-voter signature lists) plus the
// binomial dissemination tree for committee broadcasts — the O(log n)
// traffic profile. Requires an aggregation-capable scheme ("hash").
func WithAggregateCerts(on bool) Option {
	return func(b *builder) error { b.cfg.AggregateCerts = on; return nil }
}

// WithFaults installs the network fault model: iid message loss,
// beyond-bound lag, a two-group partition with a heal tick, and periodic
// node churn (see FaultsConfig). The protocol answers with the defences
// it runs on every network: silence watchdogs impeach crashed or
// unreachable leaders, and phases that cannot conclude record timeout
// verdicts. The zero config, and any model that never acts, give runs
// byte-identical to never calling this option.
func WithFaults(f FaultsConfig) Option {
	return func(b *builder) error {
		if err := f.Validate(); err != nil {
			return err
		}
		b.cfg.Faults = f.Clone()
		return nil
	}
}

// WithObserver attaches an observer to the run; multiple observers fire in
// attachment order. See the Observer interface for the callback contract.
func WithObserver(o Observer) Option {
	return func(b *builder) error {
		if o != nil {
			b.obs = append(b.obs, o)
		}
		return nil
	}
}

// FromConfig replaces the entire config with c (observers attached by
// earlier options are kept). Combine with Resolve to materialise a set of
// options, tweak the data, and build.
func FromConfig(c Config) Option {
	return func(b *builder) error { b.cfg = c; return nil }
}

// FromJSON overlays a JSON config document (the format Config.ToJSON
// writes) onto the current config: fields absent from the document keep
// their values, unknown fields are an error.
func FromJSON(data []byte) Option {
	return func(b *builder) error { return overlayJSON(&b.cfg, data) }
}

// Resolve applies options to the default config and returns the resulting
// Config without building a simulation — the data a run would use, for
// printing, serialising, or driving protocol.NewEngine directly.
func Resolve(opts ...Option) (Config, error) {
	b := &builder{cfg: DefaultConfig()}
	for _, o := range opts {
		if err := o(b); err != nil {
			return Config{}, err
		}
	}
	return b.cfg, nil
}
