//go:build race

package striped

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
