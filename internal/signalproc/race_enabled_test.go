//go:build race

package signalproc

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
