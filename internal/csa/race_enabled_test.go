//go:build race

package csa

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates; allocation-count tests skip
// themselves when it is set.
const raceEnabled = true
