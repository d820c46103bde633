//go:build !race

package protocol

const raceEnabled = false
