package stats

import (
	"fmt"
	"math"
)

// ExponentialFit holds the least-squares fit of
// ln P(d) = ln a − λ·d over the degrees with non-zero frequency, i.e.
// P(d) = a·e^(−λ d).  §2 of the paper reports that the complex degree
// distribution satisfies *neither* a power law *nor* an exponential;
// this fit supplies the second half of that claim.
type ExponentialFit struct {
	A      float64 // amplitude
	Lambda float64 // decay rate (positive for decaying distributions)
	R2     float64 // coefficient of determination of the semi-log fit
	N      int     // points fitted
}

func (e ExponentialFit) String() string {
	return fmt.Sprintf("P(d) = %.3g·exp(%.3f·d)  (R² = %.3f, n = %d)", e.A, -e.Lambda, e.R2, e.N)
}

// FitExponential fits an exponential to a degree histogram (hist[d] =
// frequency of degree d).  Zero-frequency degrees are skipped.  It
// returns an error if fewer than two points remain.
func FitExponential(hist []int) (ExponentialFit, error) {
	var xs, ys []float64
	for d := 0; d < len(hist); d++ {
		if hist[d] > 0 {
			xs = append(xs, float64(d))
			ys = append(ys, math.Log(float64(hist[d])))
		}
	}
	if len(xs) < 2 {
		return ExponentialFit{}, fmt.Errorf("stats: exponential fit needs ≥ 2 distinct degrees, have %d", len(xs))
	}
	slope, intercept, r2, ok := fitLine(xs, ys)
	if !ok {
		return ExponentialFit{}, fmt.Errorf("stats: degenerate exponential fit (all degrees equal)")
	}
	return ExponentialFit{
		A:      math.Exp(intercept),
		Lambda: -slope,
		R2:     r2,
		N:      len(xs),
	}, nil
}

// DistributionVerdict compares both fits of a histogram the way §2
// does for the complex degrees, reporting whether either family
// explains the data at the given R² threshold.
type DistributionVerdict struct {
	PowerLaw    PowerLawFit
	PowerLawOK  bool
	Exponential ExponentialFit
	ExpOK       bool
	Threshold   float64
}

// JudgeDistribution fits both families and applies the threshold.
// Fit errors (too few points) count as "does not satisfy".
func JudgeDistribution(hist []int, threshold float64) DistributionVerdict {
	v := DistributionVerdict{Threshold: threshold}
	if fit, err := FitPowerLaw(hist); err == nil {
		v.PowerLaw = fit
		v.PowerLawOK = fit.R2 >= threshold
	}
	if fit, err := FitExponential(hist); err == nil {
		v.Exponential = fit
		v.ExpOK = fit.R2 >= threshold
	}
	return v
}

func (v DistributionVerdict) String() string {
	verdict := func(ok bool) string {
		if ok {
			return "satisfied"
		}
		return "not satisfied"
	}
	return fmt.Sprintf("power law %s (R²=%.3f); exponential %s (R²=%.3f) at threshold %.2f",
		verdict(v.PowerLawOK), v.PowerLaw.R2, verdict(v.ExpOK), v.Exponential.R2, v.Threshold)
}
