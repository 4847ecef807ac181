//go:build race

package rpe

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// Put items on purpose, so pooled code allocates and allocation counts mean
// nothing.
const raceEnabled = true
