//go:build race

package kamlssd

// The race detector makes sync.Pool drop pooled objects at random, so
// allocation counts that rest on pooling are not meaningful under it.
func init() { raceEnabled = true }
