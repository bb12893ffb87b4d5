//go:build race

package gateway

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a quarter of its puts on purpose, so a path that takes a pooled
// object (json.Valid's scanner) allocates there by design.
const raceEnabled = true
