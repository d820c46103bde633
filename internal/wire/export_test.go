package wire

// Registry reports every registered type, by name, with the tag it is
// registered under — the registry as TestTagCoverage audits it.
func Registry() map[string]uint16 {
	out := make(map[string]uint16, len(byType))
	for t, r := range byType {
		out[t.String()] = r.tag
	}
	return out
}
