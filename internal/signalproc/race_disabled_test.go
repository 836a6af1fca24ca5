//go:build !race

package signalproc

const raceEnabled = false
