//go:build race

package obs

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
