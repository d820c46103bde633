//go:build race

package protocol

// raceEnabled lets allocation-pinning tests skip under the race detector,
// whose bookkeeping perturbs alloc counts.
const raceEnabled = true
