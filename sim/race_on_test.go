//go:build race

package sim_test

// raceEnabled lets TestScenarioGolden run only raceRows under the race
// detector.
const raceEnabled = true
