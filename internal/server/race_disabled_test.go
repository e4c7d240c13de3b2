//go:build !race

package server

// raceEnabled reports that this test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
