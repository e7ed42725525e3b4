//go:build race

package mcheck

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
