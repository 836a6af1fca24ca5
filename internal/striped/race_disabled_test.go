//go:build !race

package striped

const raceEnabled = false
