//go:build !race

package ledger

const raceEnabled = false
