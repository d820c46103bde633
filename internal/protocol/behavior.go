package protocol

import (
	"fmt"
	"slices"
	"strings"
)

// VoteStrategy controls how a member votes on transaction lists (§IV-C).
type VoteStrategy int

const (
	// VoteHonest validates each transaction against the shard view.
	VoteHonest VoteStrategy = iota
	// VoteInvert answers the opposite of the honest verdict.
	VoteInvert
	// VoteLazy answers Unknown on everything (zero effort).
	VoteLazy
	// VoteYes blindly approves everything.
	VoteYes
)

// voteNames names the vote strategies, indexed by VoteStrategy; honest
// voting is the absence of one.
var voteNames = []string{VoteInvert: "invert", VoteLazy: "lazy", VoteYes: "yes"}

// Behavior is the explicit deviation profile of a byzantine node. The zero
// value is fully honest. A run document holds it as its name (see
// ParseBehavior and MarshalText).
type Behavior struct {
	Offline bool // drops all traffic ("pretending to be offline")

	Vote VoteStrategy

	// Leader faults (only effective when the node holds a leader seat).
	EquivocateIntra bool // propose two different TXdecSETs in Algorithm 3
	ForgeSemiCommit bool // send H(S') ≠ H(S) to C_R and the partial set
	ConcealCross    bool // drop incoming cross-shard transaction lists
	CensorAll       bool // propose an empty TXList (censorship)
	SuppressScore   bool // never run the reputation-update consensus
}

// behaviorFlags names Behavior's composable deviations: ParseBehavior sets
// through it and MarshalText reads through it, so a new flag needs exactly
// one entry to parse and serialise.
var behaviorFlags = []struct {
	name string
	of   func(*Behavior) *bool
}{
	{"offline", func(b *Behavior) *bool { return &b.Offline }},
	{"equivocate", func(b *Behavior) *bool { return &b.EquivocateIntra }},
	{"forge", func(b *Behavior) *bool { return &b.ForgeSemiCommit }},
	{"conceal", func(b *Behavior) *bool { return &b.ConcealCross }},
	{"censor", func(b *Behavior) *bool { return &b.CensorAll }},
	{"suppress-score", func(b *Behavior) *bool { return &b.SuppressScore }},
}

// Honest is the all-honest behaviour.
var Honest = Behavior{}

// IsByzantine reports whether the behaviour deviates at all.
func (b Behavior) IsByzantine() bool { return b != Honest }

// ParseBehavior resolves a byzantine behaviour name. Names compose with
// commas — "equivocate,conceal" is a leader that both equivocates in
// Algorithm 3 and drops cross-shard lists. The empty string and "honest"
// are the zero (honest) behaviour. At most one vote strategy
// (invert|lazy|yes) may appear.
func ParseBehavior(s string) (Behavior, error) {
	var b Behavior
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" || tok == "honest" {
			continue // "honest" may appear in a list, and trailing commas are fine
		}
		if flag := b.flag(tok); flag != nil {
			*flag = true
			continue
		}
		switch v := VoteStrategy(slices.Index(voteNames, tok)); {
		case v <= VoteHonest:
			return Behavior{}, fmt.Errorf("protocol: unknown behavior %q (want honest|%s, comma-composable)",
				tok, strings.Join(behaviorNames(), "|"))
		case b.Vote != VoteHonest && b.Vote != v:
			return Behavior{}, fmt.Errorf("protocol: conflicting vote strategies in %q", s)
		default:
			b.Vote = v
		}
	}
	return b, nil
}

// flag returns b's field for a flag name, nil for any other name.
func (b *Behavior) flag(name string) *bool {
	for _, f := range behaviorFlags {
		if f.name == name {
			return f.of(b)
		}
	}
	return nil
}

// behaviorNames lists every name ParseBehavior accepts besides "honest":
// the vote strategies, then the flags.
func behaviorNames() []string {
	names := slices.Clone(voteNames[VoteInvert:])
	for _, f := range behaviorFlags {
		names = append(names, f.name)
	}
	return names
}

// MarshalText writes b's canonical name, the one ParseBehavior reads back:
// the vote strategy first, then the flags in behaviorFlags order, joined by
// commas; honest is "".
func (b Behavior) MarshalText() ([]byte, error) {
	var parts []string
	if b.Vote != VoteHonest {
		if b.Vote < VoteHonest || int(b.Vote) >= len(voteNames) {
			return nil, fmt.Errorf("protocol: vote strategy %d has no name", b.Vote)
		}
		parts = append(parts, voteNames[b.Vote])
	}
	for _, f := range behaviorFlags {
		if *f.of(&b) {
			parts = append(parts, f.name)
		}
	}
	return []byte(strings.Join(parts, ",")), nil
}

// UnmarshalText sets b from a behaviour name (see ParseBehavior), so a
// document naming an unknown behaviour fails as it decodes.
func (b *Behavior) UnmarshalText(text []byte) error {
	v, err := ParseBehavior(string(text))
	if err != nil {
		return err
	}
	*b = v
	return nil
}
