//go:build !race

package chain

const raceEnabled = false
