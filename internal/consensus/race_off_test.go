//go:build !race

package consensus

const raceEnabled = false
