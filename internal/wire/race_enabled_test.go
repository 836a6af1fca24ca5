//go:build race

package wire

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
