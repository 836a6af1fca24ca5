//go:build race

package service

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
