package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cycledger/internal/protocol"
)

// Config is the run document: protocol.Params under the facade's name, so
// a run is described once. Its JSON form names the byzantine behaviour,
// the signature scheme and the transport, so a whole experiment can live
// in a config file or a scenario registry entry.
//
// The zero value is not runnable; start from DefaultConfig (what sim.New
// does) and overlay changes, or parse a file with ParseConfig.
type Config protocol.Params

// DefaultConfig is protocol.DefaultParams: 4 committees of 16 (λ = 3)
// plus a 9-member referee committee, 3 rounds, seed 1.
func DefaultConfig() Config { return Config(protocol.DefaultParams()) }

// Params returns the config as engine parameters, the same value under the
// engine's type. The result is validated by protocol.NewEngine, not here;
// Params itself only fails on a scheme or transport name that resolves to
// nothing.
func (c Config) Params() (protocol.Params, error) {
	p := protocol.Params(c)
	return p, p.CheckNames()
}

// TotalNodes returns the node count n = m·c + |C_R|.
func (c Config) TotalNodes() int { return c.M*c.C + c.RefSize }

// ToJSON renders the config as indented JSON, the format ParseConfig and
// FromJSON accept back.
func (c Config) ToJSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// ParseConfig decodes a JSON config. Fields absent from the document keep
// the defaults; unknown fields and names are an error (they are almost
// always typos that would otherwise silently run the wrong experiment).
func ParseConfig(data []byte) (Config, error) {
	c := DefaultConfig()
	if err := overlayJSON(&c, data); err != nil {
		return Config{}, err
	}
	return c, nil
}

// overlayJSON decodes data over an existing config, keeping values the
// document does not mention, and checks the names the result holds. The
// fault spec is deep-copied first: JSON merges into existing pointers in
// place, and config values are copied around freely (scenario presets,
// sweep bases), so decoding into a shared *FaultsConfig would silently
// mutate every config holding it.
func overlayJSON(c *Config, data []byte) error {
	c.Faults = c.Faults.Clone()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(c)
	if err == nil {
		err = protocol.Params(*c).CheckNames()
	}
	if err != nil {
		return fmt.Errorf("sim: parsing config: %w", err)
	}
	return nil
}

// ParseBehavior resolves a byzantine behaviour name; see
// protocol.ParseBehavior (names compose with commas, e.g.
// "equivocate,conceal"; "" and "honest" are the honest behaviour).
func ParseBehavior(s string) (Behavior, error) { return protocol.ParseBehavior(s) }
