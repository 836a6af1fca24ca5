//go:build race

package router_test

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
