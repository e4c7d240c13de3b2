//go:build !race

package csa

// raceEnabled reports whether this test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
