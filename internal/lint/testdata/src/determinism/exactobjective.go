package determinism

import "repro/internal/stats"

// exactInLoop recomputes the objective per candidate — the quadratic
// shape the incremental accumulators exist to replace.
func exactInLoop(candidates [][]float64) float64 {
	best := 0.0
	for _, c := range candidates {
		if s := stats.PopStdDev(c); s > best { // want `stats\.PopStdDev recomputes the Eq\. \(10\) objective`
			best = s
		}
	}
	return best
}

// exactInClosure is the migration shape: the closure is evaluated once
// per what-if, so the recompute cost hides behind an innocent call.
func exactInClosure(residuals []float64) func() float64 {
	return func() float64 {
		return stats.PopStdDev(residuals) // want `stats\.PopStdDev recomputes the Eq\. \(10\) objective`
	}
}

// exactOnce computes the objective a single time at top level — no loop,
// no closure, nothing to amortise.
func exactOnce(residuals []float64) float64 {
	return stats.PopStdDev(residuals)
}
