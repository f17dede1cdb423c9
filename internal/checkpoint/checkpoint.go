// Package checkpoint computes optimal checkpoint intervals and seals
// checkpoint objects. Hourglass follows Flint and the paper (§5.1) in
// using Daly's first-order result: the interval that minimises
// expected lost work given the checkpoint cost and the mean time to
// failure. Codec is the one CRC32 trailer both the in-process engine's
// checkpoints and the dist plane's blobs and manifests are sealed with.
package checkpoint

import (
	"math"

	"hourglass/internal/units"
)

// DalyInterval returns the optimal time between checkpoints for a
// configuration whose checkpoint takes tSave and whose mean time to
// failure is mttf: √(2·tSave·MTTF) (the paper's t_ckpt formula).
// Degenerate inputs yield +Inf (never checkpoint).
func DalyInterval(tSave, mttf units.Seconds) units.Seconds {
	if tSave <= 0 || mttf <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return units.Seconds(math.Sqrt(2 * float64(tSave) * float64(mttf)))
}

// DalyHigherOrder returns Daly's higher-order estimate, which corrects
// the first-order interval when tSave is not ≪ MTTF:
//
//	t = √(2·tSave·M) · [1 + √(tSave/(2M))/3 + (tSave/(2M))/9] − tSave
//
// valid for tSave < 2M; otherwise the optimum degenerates to M.
func DalyHigherOrder(tSave, mttf units.Seconds) units.Seconds {
	if tSave <= 0 || mttf <= 0 {
		return units.Seconds(math.Inf(1))
	}
	s, m := float64(tSave), float64(mttf)
	if s >= 2*m {
		return mttf
	}
	r := math.Sqrt(s / (2 * m))
	t := math.Sqrt(2*s*m)*(1+r/3+r*r/9) - s
	return units.Seconds(t)
}

// ExpectedOverhead estimates the fraction of runtime spent on
// checkpointing plus expected recomputation for a given interval:
// tSave/interval (checkpoint cost) + interval/(2·MTTF) (mean half an
// interval lost per failure). Used by ablation benches to verify the
// Daly interval is near the minimum.
func ExpectedOverhead(interval, tSave, mttf units.Seconds) float64 {
	if interval <= 0 || mttf <= 0 {
		return math.Inf(1)
	}
	return float64(tSave)/float64(interval) + float64(interval)/(2*float64(mttf))
}
