package sim

// builder accumulates the effect of the options handed to New: a Config
// (pure data, serialisable) plus the runtime-only attachments (observers).
type builder struct {
	cfg Config
	obs []Observer
}

// An Option mutates the simulation under construction. Options apply in
// order, later options overriding earlier ones, so a scenario's preset can
// be specialised by appending overrides. A run field is set in the run
// document alone — FromConfig replaces it, FromJSON overlays part of it —
// and WithObserver attaches what the document cannot hold.
type Option func(*builder) error

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
