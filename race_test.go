//go:build race

package uhm

// raceEnabled reports that the race detector is on.  Its sync.Pool drops
// pooled objects at random, so allocation counts are not exact under it.
const raceEnabled = true
