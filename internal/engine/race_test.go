//go:build race

package engine

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop a random share of the items put back, so allocation figures that
// rely on pooled scratch do not hold under it.
const raceEnabled = true
