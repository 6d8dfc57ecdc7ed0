package eval

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"e9patch"
	"e9patch/internal/workload"
)

// PlanCacheBench is the plan-cache-hit rematerialization measurement
// recorded in BENCH_*.json: how much of a full rewrite a cached plan
// skips. Rewrite times the one-pass pipeline, Plan the decision
// phase alone, Apply the decision-free replay — the work a plan-cache
// hit actually performs. Speedup is Rewrite/Apply; Identical reports
// whether Apply reproduced the full rewrite byte-for-byte (a false
// value is a bug, not a measurement artefact). PlanBytes vs OutputBytes
// shows the storage ratio of caching plans instead of results.
type PlanCacheBench struct {
	Profile     string
	App         string
	Locations   int
	RewriteSec  float64
	PlanSec     float64
	ApplySec    float64
	Speedup     float64
	PlanBytes   int
	OutputBytes int
	Identical   bool
}

// MeasurePlanCache times Rewrite, Plan and Apply on a profile's static
// binary (best of N each) and verifies Plan+Apply byte-identity.
func MeasurePlanCache(opt Options, progress io.Writer) (*PlanCacheBench, error) {
	opt = opt.withDefaults()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		return nil, err
	}
	prog, err := workload.BuildStatic(p, opt.Scale)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig(p, A2, opt.Scale)

	const reps = 3
	bestOf := func(f func() error) (float64, error) {
		best := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if sec := time.Since(start).Seconds(); best == 0 || sec < best {
				best = sec
			}
		}
		return best, nil
	}

	out := &PlanCacheBench{Profile: p.Name, App: "A2"}
	if progress != nil {
		fmt.Fprintf(progress, "# plancache: %s rewrite\n", p.Name)
	}
	var ref *e9patch.Result
	out.RewriteSec, err = bestOf(func() error {
		r, err := e9patch.Rewrite(prog.ELF, cfg)
		ref = r
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("plancache rewrite: %w", err)
	}
	if progress != nil {
		fmt.Fprintf(progress, "# plancache: %s plan\n", p.Name)
	}
	var pl *e9patch.PatchPlan
	out.PlanSec, err = bestOf(func() error {
		q, err := e9patch.Plan(prog.ELF, cfg)
		pl = q
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("plancache plan: %w", err)
	}
	if progress != nil {
		fmt.Fprintf(progress, "# plancache: %s apply\n", p.Name)
	}
	var applied *e9patch.Result
	out.ApplySec, err = bestOf(func() error {
		r, err := e9patch.Apply(prog.ELF, pl)
		applied = r
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("plancache apply: %w", err)
	}

	enc, err := pl.Encode()
	if err != nil {
		return nil, err
	}
	out.Locations = ref.Stats.Total
	out.PlanBytes = len(enc)
	out.OutputBytes = len(ref.Output)
	out.Identical = bytes.Equal(ref.Output, applied.Output)
	if out.ApplySec > 0 {
		out.Speedup = out.RewriteSec / out.ApplySec
	}
	return out, nil
}
