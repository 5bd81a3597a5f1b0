//go:build race

package exp

// raceEnabled reports whether the race detector instruments this build.
// The paper-tables golden skips under it: the matrix takes minutes there.
const raceEnabled = true
