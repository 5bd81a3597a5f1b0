//go:build race

package server

// raceEnabled reports whether the race detector instruments this build.
// The allocation-budget test skips under it, as internal/core's do.
const raceEnabled = true
