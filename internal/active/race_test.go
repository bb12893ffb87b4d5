//go:build race

package active

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a quarter of its puts on purpose, so allocation counts differ.
const raceEnabled = true
