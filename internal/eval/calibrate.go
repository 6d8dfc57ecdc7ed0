package eval

import (
	"sync"

	"e9patch"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
)

// Pilot calibration. The workload generator's encoding fractions
// (short-jump share, small-store share) are first derived analytically
// from a row's published Base%, assuming a nominal pun-success
// probability. Real pun success depends on the actual byte
// distribution of the generated code, so a small pilot binary is
// rewritten with only the baseline tactics, the empirical pun-success
// probability is extracted, and the fractions are re-solved against
// the published target. One step converges well because Base% is
// monotone and nearly affine in the fraction.
//
// This calibrates the *input geometry* against numbers the paper
// reports about its inputs; every output column (tactic breakdown,
// Succ%, Size%, Time%) is still measured from our pipeline.

// pilotTextBytes is the pilot binary's approximate text size.
const pilotTextBytes = 150_000

var (
	mixCacheMu sync.Mutex
	mixCache   = map[string]workload.Mix{}
)

// calibratedMix returns the calibrated encoding fractions for p.
func calibratedMix(p workload.Profile) (workload.Mix, error) {
	mixCacheMu.Lock()
	m, ok := mixCache[p.Name]
	mixCacheMu.Unlock()
	if ok {
		return m, nil
	}

	m0 := workload.MixFor(p)
	pScale := pilotTextBytes / (p.SizeMB * 1e6)
	if pScale > 8 {
		pScale = 8
	}

	prog, err := workload.BuildStaticMix(p, pScale, p.Kind, m0)
	if err != nil {
		return workload.Mix{}, err
	}
	baseOnly := func(app application) (float64, error) {
		cfg := baseConfig(p, app, pScale)
		cfg.Patch = patch.Options{DisableT1: true, DisableT2: true, DisableT3: true}
		res, err := e9patch.Rewrite(prog.ELF, cfg)
		if err != nil {
			return 0, err
		}
		return res.Stats.BasePercent(), nil
	}
	measA1, err := baseOnly(a1)
	if err != nil {
		return workload.Mix{}, err
	}
	measA2, err := baseOnly(a2)
	if err != nil {
		return workload.Mix{}, err
	}

	m = workload.Mix{
		ShortJcc:   resolveFraction(float64(m0.ShortJcc), measA1, p.BaseA1),
		SmallStore: resolveFraction(float64(m0.SmallStore), measA2, p.BaseA2),
	}
	mixCacheMu.Lock()
	mixCache[p.Name] = m
	mixCacheMu.Unlock()
	return m, nil
}

// resolveFraction solves Base = (100 - s) + s*P for the new s given a
// target Base, using the pun-success probability P observed with the
// pilot fraction s0.
func resolveFraction(s0, measured, target float64) int {
	if s0 < 1 {
		s0 = 1
	}
	// measured = (100 - s0) + s0*P  =>  P = (measured - 100 + s0) / s0.
	p := (measured - 100 + s0) / s0
	if p < 0.02 {
		p = 0.02
	}
	if p > 0.99 {
		p = 0.99
	}
	s := (100 - target) / (1 - p)
	if s < 2 {
		s = 2
	}
	if s > 97 {
		s = 97
	}
	return int(s + 0.5)
}
