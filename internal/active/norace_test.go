//go:build !race

package active

const raceEnabled = false
