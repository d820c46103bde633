//go:build race

package wire_test

// raceEnabled lets the allocation-counting check skip under the race
// detector, which makes sync.Pool drop items at random.
const raceEnabled = true
