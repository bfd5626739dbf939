package core

import (
	"context"
	"fmt"

	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/wave"
)

// TechniqueResult is one technique's prediction for one noise case.
type TechniqueResult struct {
	Name string
	// Gamma is the fitted equivalent linear waveform.
	Gamma wave.Ramp
	// EstOut is the gate output under Gamma.
	EstOut *wave.Waveform
	// EstArrival is the predicted output arrival (latest 0.5·Vdd crossing).
	EstArrival float64
	// ArrivalError is EstArrival − the reference output arrival, in
	// seconds (signed; positive = pessimistic for a late-arrival check).
	ArrivalError float64
	// Err is set when the technique could not produce a prediction (e.g.
	// WLS5 on non-overlapping transitions); the numeric fields are then
	// meaningless.
	Err error
}

// Comparison holds the reference timing and all technique results for one
// noise-injection case.
type Comparison struct {
	// TrueArrival is the reference output arrival from the golden
	// transient simulation of the noisy waveform.
	TrueArrival float64
	// TrueDelay is the reference 50%–50% gate delay.
	TrueDelay float64
	// Results has one entry per technique, in input order.
	Results []TechniqueResult
	// ReplayHits and ReplayMisses count Γeff replays for this case: a hit
	// is a technique whose Γeff and replay window exactly equal an earlier
	// technique's (e.g. SGDP's safeguard falling back to another fit), so
	// its transistor-level transient was not re-simulated.
	ReplayHits, ReplayMisses int
}

// CompareOptions parameterizes CompareTechniquesWith.
type CompareOptions struct {
	// Ctx, if non-nil, cancels the comparison: the technique loop stops
	// before the next fit and any in-flight replay transient stops at its
	// next time step, returning an error matching telemetry.ErrCanceled.
	Ctx context.Context
	// Techniques to evaluate; nil selects eqwave.All().
	Techniques []eqwave.Technique
	// Telemetry, if non-nil, receives per-technique fit timers
	// ("eqwave.fit_seconds.<name>"), the replay hit/miss counters and the
	// spice engine counters of the replays (via the gate's registry, which
	// this call temporarily sets when unset).
	Telemetry *telemetry.Registry
}

// CompareTechniquesWith computes Γeff with every configured technique,
// replays each Γeff through the gate backend, and scores the predicted
// output arrival against the reference noisy output.
//
// A technique whose Γeff and replay window exactly equal an earlier
// technique's reuses that replay instead of re-simulating it; nothing
// short of an exact match is reused, so every result is the replay of its
// own ramp. The Comparison reports the hit/miss counts, and
// opts.Telemetry (when set) accumulates them across cases.
//
// The reference input/output pair and the noiseless pair must share the
// same time base (the experiment drivers guarantee this by construction).
func CompareTechniquesWith(gate *GateSim, in eqwave.Input, trueOut *wave.Waveform, opts CompareOptions) (*Comparison, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	techs := opts.Techniques
	if techs == nil {
		techs = eqwave.All()
	}
	if gate.Telemetry == nil && opts.Telemetry != nil {
		defer func() { gate.Telemetry = nil }()
		gate.Telemetry = opts.Telemetry
	}
	trueArr, err := ArrivalAt(trueOut, in.Vdd)
	if err != nil {
		return nil, fmt.Errorf("core: reference output arrival: %w", err)
	}
	trueDelay, err := GateDelay(in.Noisy, trueOut, in.Vdd)
	if err != nil {
		return nil, fmt.Errorf("core: reference delay: %w", err)
	}
	cmp := &Comparison{TrueArrival: trueArr, TrueDelay: trueDelay}
	// The case's earlier replays: at most one per technique, so a linear
	// scan is the whole lookup.
	var replays []replay
	defer func() {
		opts.Telemetry.Counter("core.replay_hits").Add(int64(cmp.ReplayHits))
		opts.Telemetry.Counter("core.replay_misses").Add(int64(cmp.ReplayMisses))
	}()
	for _, tech := range techs {
		if ctx.Err() != nil {
			return nil, telemetry.Canceled(ctx, "core: comparison canceled before %s", tech.Name())
		}
		r := TechniqueResult{Name: tech.Name()}
		// One child span per technique: the Γeff fit and the (possibly
		// reused) replay nest under it, with the reuse outcome as an event.
		tctx, tspan := trace.Start(ctx, "core.technique", trace.String("technique", tech.Name()))
		stopFit := opts.Telemetry.Timer("eqwave.fit_seconds." + tech.Name()).Start()
		_, fitSpan := trace.Start(tctx, "eqwave.fit")
		gamma, err := tech.Equivalent(in)
		fitSpan.End()
		stopFit()
		if err != nil {
			r.Err = err
			tspan.SetAttr(trace.String("error", err.Error()))
			tspan.End()
			cmp.Results = append(cmp.Results, r)
			continue
		}
		r.Gamma = gamma
		start, stop := WindowFor(gamma, trueOut, 0.2e-9)
		var est *wave.Waveform
		if prev, ok := findReplay(replays, gamma, start, stop); ok {
			cmp.ReplayHits++
			tspan.Event("core.replay.cache_hit")
			est, err = prev.out, prev.err
		} else {
			cmp.ReplayMisses++
			tspan.Event("core.replay.cache_miss")
			est, err = gate.OutputForRampCtx(tctx, gamma, start, stop)
			replays = append(replays, replay{gamma: gamma, start: start, stop: stop, out: est, err: err})
		}
		if err != nil {
			if ctx.Err() != nil {
				tspan.SetAttr(trace.String("error", "canceled"))
				tspan.End()
				return nil, telemetry.Canceled(ctx, "core: replay canceled during %s", tech.Name())
			}
			r.Err = err
			tspan.SetAttr(trace.String("error", err.Error()))
			tspan.End()
			cmp.Results = append(cmp.Results, r)
			continue
		}
		r.EstOut = est
		arr, err := ArrivalAt(est, in.Vdd)
		if err != nil {
			r.Err = fmt.Errorf("estimated output never crosses 0.5·Vdd: %w", err)
			tspan.SetAttr(trace.String("error", r.Err.Error()))
			tspan.End()
			cmp.Results = append(cmp.Results, r)
			continue
		}
		r.EstArrival = arr
		r.ArrivalError = arr - trueArr
		tspan.SetAttr(trace.Float("arrival_error_s", r.ArrivalError))
		tspan.End()
		cmp.Results = append(cmp.Results, r)
	}
	return cmp, nil
}

// replay is one Γeff replay of a case: the ramp, the window it was
// simulated over, and the gate response (or the replay's error, which a
// retry would reproduce identically).
type replay struct {
	gamma       wave.Ramp
	start, stop float64
	out         *wave.Waveform
	err         error
}

// findReplay returns the earlier replay of exactly this ramp over exactly
// this window, if there is one.
func findReplay(replays []replay, gamma wave.Ramp, start, stop float64) (replay, bool) {
	for _, r := range replays {
		if r.gamma == gamma && r.start == start && r.stop == stop {
			return r, true
		}
	}
	return replay{}, false
}

// Result returns the entry for a named technique.
func (c *Comparison) Result(name string) (TechniqueResult, bool) {
	for _, r := range c.Results {
		if r.Name == name {
			return r, true
		}
	}
	return TechniqueResult{}, false
}
