//go:build race

package client

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, and sync.Pool drops entries at random under it.
const raceEnabled = true
