// Package unenrolled is a package determinism does not check: it may
// read the wall clock and range over maps freely, so the two directives
// that waive those checks are themselves reported.
package unenrolled

import (
	"fmt"
	"time"
)

// clock reads the wall clock; no directive is needed here.
func clock() float64 {
	start := time.Now()
	return time.Since(start).Seconds()
}

// annotatedClock carries a directive that waives nothing.
func annotatedClock() time.Time {
	return time.Now() //hmn:wallclock // want `//hmn:wallclock waives nothing: .*unenrolled is not a deterministic package`
}

// annotatedOrder carries a directive on a line of its own.
func annotatedOrder(m map[string]int) {
	//hmn:orderinvariant // want `//hmn:orderinvariant waives nothing`
	for k := range m {
		fmt.Println(k)
	}
}
