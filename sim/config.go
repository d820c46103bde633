package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cycledger/internal/consensus"
	"cycledger/internal/protocol"
	"cycledger/internal/transport"
	"cycledger/internal/wire"
)

// Config is the JSON-serialisable form of a simulation setup. It mirrors
// protocol.Params field for field, but encodes the two non-data fields —
// the byzantine behaviour and the signature scheme — as names, so a whole
// experiment can live in a config file or a scenario registry entry.
//
// The zero value is not runnable; start from DefaultConfig (what sim.New
// does) and overlay changes, or parse a file with ParseConfig.
type Config struct {
	M       int `json:"m"`
	C       int `json:"c"`
	Lambda  int `json:"lambda"`
	RefSize int `json:"ref_size"`

	Rounds         int     `json:"rounds"`
	TxPerCommittee int     `json:"tx_per_committee"`
	CrossFrac      float64 `json:"cross_frac"`
	InvalidFrac    float64 `json:"invalid_frac"`

	// No omitempty anywhere: a document written by ToJSON must be a
	// complete snapshot, able to reset any field through the FromJSON
	// overlay (an omitted zero would silently inherit whatever the
	// scenario layer set).
	MaliciousFrac  float64 `json:"malicious_frac"`
	Behavior       string  `json:"behavior"`
	CorruptLeaders bool    `json:"corrupt_leaders"`

	Scheme      string `json:"scheme"` // "hash" (default) or "ed25519"
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`
	PowHardness uint64 `json:"pow_hardness"`

	// Transport names the network the engine runs over: "sim" (the
	// deterministic simulator, the default) or "live" (real concurrent
	// node processes exchanging wire-encoded bytes; report-identical to
	// "sim", fault models included — one scheduler drives both).
	Transport string `json:"transport"`

	DisableRecovery  bool `json:"disable_recovery"`
	PreScreenCross   bool `json:"pre_screen_cross"`
	Pipelined        bool `json:"pipelined"`
	ParallelBlockGen bool `json:"parallel_block_gen"`

	// AggregateCerts switches phase certificates to the aggregate form
	// (one bitmap + constant-size proof instead of per-voter signature
	// lists) and routes committee broadcasts over the binomial
	// dissemination tree. Requires an aggregation-capable scheme ("hash").
	AggregateCerts bool `json:"aggregate_certs"`

	// Faults is the network fault model (message loss, beyond-bound lag,
	// a healing partition, periodic churn); null is the fault-free engine.
	// Sweep axes address its fields by dotted path, e.g. "faults.loss".
	Faults *FaultsConfig `json:"faults"`
}

// DefaultConfig mirrors protocol.DefaultParams: 4 committees of 16 (λ = 3)
// plus a 9-member referee committee, 3 rounds, seed 1.
func DefaultConfig() Config {
	c, err := configFromParams(protocol.DefaultParams())
	if err != nil {
		panic(err) // the default params are always representable
	}
	return c
}

// Params converts the config to engine parameters, resolving the behaviour
// and scheme names. The result is validated by protocol.NewEngine, not
// here; Params itself only fails on unresolvable names.
func (c Config) Params() (protocol.Params, error) {
	behavior, err := ParseBehavior(c.Behavior)
	if err != nil {
		return protocol.Params{}, err
	}
	scheme, err := parseScheme(c.Scheme)
	if err != nil {
		return protocol.Params{}, err
	}
	liveCodec, err := parseTransport(c.Transport)
	if err != nil {
		return protocol.Params{}, err
	}
	return protocol.Params{
		M:                 c.M,
		C:                 c.C,
		Lambda:            c.Lambda,
		RefSize:           c.RefSize,
		Rounds:            c.Rounds,
		TxPerCommittee:    c.TxPerCommittee,
		CrossFrac:         c.CrossFrac,
		InvalidFrac:       c.InvalidFrac,
		MaliciousFrac:     c.MaliciousFrac,
		ByzantineBehavior: behavior,
		CorruptLeaders:    c.CorruptLeaders,
		Scheme:            scheme,
		Seed:              c.Seed,
		Parallelism:       c.Parallelism,
		PowHardness:       c.PowHardness,
		DisableRecovery:   c.DisableRecovery,
		PreScreenCross:    c.PreScreenCross,
		Pipelined:         c.Pipelined,
		ParallelBlockGen:  c.ParallelBlockGen,
		AggregateCerts:    c.AggregateCerts,
		Faults:            c.Faults.Clone(),
		LiveCodec:         liveCodec,
	}, nil
}

// TotalNodes returns the node count n = m·c + |C_R|.
func (c Config) TotalNodes() int { return c.M*c.C + c.RefSize }

// ToJSON renders the config as indented JSON, the format ParseConfig and
// FromJSON accept back.
func (c Config) ToJSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// ParseConfig decodes a JSON config. Fields absent from the document keep
// the defaults; unknown fields are an error (they are almost always typos
// that would otherwise silently run the wrong experiment).
func ParseConfig(data []byte) (Config, error) {
	c := DefaultConfig()
	if err := overlayJSON(&c, data); err != nil {
		return Config{}, err
	}
	return c, nil
}

// overlayJSON decodes data over an existing config, keeping values the
// document does not mention. The fault spec is deep-copied first: JSON
// merges into existing pointers in place, and config values are copied
// around freely (scenario presets, sweep bases), so decoding into a
// shared *FaultsConfig would silently mutate every config holding it.
func overlayJSON(c *Config, data []byte) error {
	c.Faults = c.Faults.Clone()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("sim: parsing config: %w", err)
	}
	return nil
}

// configFromParams is the inverse of Config.Params, used to seed the
// default config and by tests; it fails on a scheme or behaviour that has
// no name.
func configFromParams(p protocol.Params) (Config, error) {
	behavior, err := behaviorName(p.ByzantineBehavior)
	if err != nil {
		return Config{}, err
	}
	scheme, err := schemeName(p.Scheme)
	if err != nil {
		return Config{}, err
	}
	if p.LiveCodec != nil {
		// Configs name transports directly, so no codec round-trips
		// through here; only the nil default (the simulator) is mapped.
		return Config{}, fmt.Errorf("sim: a live codec cannot be named; set Config.Transport instead")
	}
	return Config{
		M:                p.M,
		C:                p.C,
		Lambda:           p.Lambda,
		RefSize:          p.RefSize,
		Rounds:           p.Rounds,
		TxPerCommittee:   p.TxPerCommittee,
		CrossFrac:        p.CrossFrac,
		InvalidFrac:      p.InvalidFrac,
		MaliciousFrac:    p.MaliciousFrac,
		Behavior:         behavior,
		CorruptLeaders:   p.CorruptLeaders,
		Scheme:           scheme,
		Seed:             p.Seed,
		Parallelism:      p.Parallelism,
		PowHardness:      p.PowHardness,
		DisableRecovery:  p.DisableRecovery,
		PreScreenCross:   p.PreScreenCross,
		Pipelined:        p.Pipelined,
		ParallelBlockGen: p.ParallelBlockGen,
		AggregateCerts:   p.AggregateCerts,
		Faults:           p.Faults.Clone(),
		Transport:        "sim",
	}, nil
}

// behaviorTokens is the single source of truth for the composable
// deviation names: ParseBehavior sets through it, behaviorName reads
// through it, so a new Behavior flag needs exactly one entry to parse and
// serialise. Vote strategies are handled separately (at most one applies).
var behaviorTokens = []struct {
	name string
	set  func(*protocol.Behavior)
	get  func(protocol.Behavior) bool
}{
	{"offline", func(b *protocol.Behavior) { b.Offline = true }, func(b protocol.Behavior) bool { return b.Offline }},
	{"equivocate", func(b *protocol.Behavior) { b.EquivocateIntra = true }, func(b protocol.Behavior) bool { return b.EquivocateIntra }},
	{"forge", func(b *protocol.Behavior) { b.ForgeSemiCommit = true }, func(b protocol.Behavior) bool { return b.ForgeSemiCommit }},
	{"conceal", func(b *protocol.Behavior) { b.ConcealCross = true }, func(b protocol.Behavior) bool { return b.ConcealCross }},
	{"censor", func(b *protocol.Behavior) { b.CensorAll = true }, func(b protocol.Behavior) bool { return b.CensorAll }},
	{"suppress-score", func(b *protocol.Behavior) { b.SuppressScore = true }, func(b protocol.Behavior) bool { return b.SuppressScore }},
}

var voteStrategies = map[string]protocol.VoteStrategy{
	"invert": protocol.VoteInvert,
	"lazy":   protocol.VoteLazy,
	"yes":    protocol.VoteYes,
}

func behaviorToken(name string) (func(*protocol.Behavior), bool) {
	for _, t := range behaviorTokens {
		if t.name == name {
			return t.set, true
		}
	}
	return nil, false
}

func behaviorTokenNames() []string {
	out := make([]string, len(behaviorTokens))
	for i, t := range behaviorTokens {
		out[i] = t.name
	}
	return out
}

// ParseBehavior resolves a byzantine behaviour name. Names compose with
// commas — "equivocate,conceal" is a leader that both equivocates in
// Algorithm 3 and drops cross-shard lists. The empty string and "honest"
// are the zero (honest) behaviour. At most one vote strategy
// (invert|lazy|yes) may appear.
func ParseBehavior(s string) (protocol.Behavior, error) {
	var b protocol.Behavior
	if s == "" || s == "honest" {
		return b, nil
	}
	voted := false
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		switch set, ok := behaviorToken(tok); {
		case tok == "honest" || tok == "":
			// no-op; allows "honest" in lists and trailing commas
		case ok:
			set(&b)
		default:
			v, ok := voteStrategies[tok]
			if !ok {
				return protocol.Behavior{}, fmt.Errorf("sim: unknown behavior %q (want honest|%s|%s, comma-composable)",
					tok, strings.Join(sortedKeys(voteStrategies), "|"), strings.Join(behaviorTokenNames(), "|"))
			}
			if voted && b.Vote != v {
				return protocol.Behavior{}, fmt.Errorf("sim: conflicting vote strategies in %q", s)
			}
			voted = true
			b.Vote = v
		}
	}
	return b, nil
}

// behaviorName renders a Behavior back to its canonical composed name
// (vote strategy first, then flags in behaviorTokens order), the
// round-trip inverse of ParseBehavior.
func behaviorName(b protocol.Behavior) (string, error) {
	var parts []string
	if b.Vote != protocol.VoteHonest {
		name := ""
		for _, k := range sortedKeys(voteStrategies) {
			if voteStrategies[k] == b.Vote {
				name = k
				break
			}
		}
		if name == "" {
			return "", fmt.Errorf("sim: vote strategy %d has no name", b.Vote)
		}
		parts = append(parts, name)
	}
	for _, t := range behaviorTokens {
		if t.get(b) {
			parts = append(parts, t.name)
		}
	}
	return strings.Join(parts, ","), nil
}

// parseTransport resolves a transport name to the engine's live codec. nil
// is the deterministic simulator (protocol.NewEngine's default); "live"
// runs real concurrent node processes exchanging production wire frames,
// report-identical to the simulator under every fault model.
func parseTransport(s string) (transport.Codec, error) {
	switch s {
	case "", "sim":
		return nil, nil
	case "live":
		return wire.Codec{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown transport %q (want sim or live)", s)
	}
}

func parseScheme(s string) (consensus.SignatureScheme, error) {
	switch s {
	case "", "hash":
		return consensus.HashScheme{}, nil
	case "ed25519":
		return consensus.Ed25519Scheme{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown signature scheme %q (want hash or ed25519)", s)
	}
}

func schemeName(s consensus.SignatureScheme) (string, error) {
	switch s.(type) {
	case consensus.HashScheme:
		return "hash", nil
	case consensus.Ed25519Scheme:
		return "ed25519", nil
	default:
		return "", fmt.Errorf("sim: signature scheme %T has no name", s)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
