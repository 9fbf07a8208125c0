//go:build race

package server

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, and sync.Pool drops entries at random under it.
const raceEnabled = true
