package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// compareFixture builds the synthetic single-case comparison workload used
// by the options-struct tests.
func compareFixture(t *testing.T) (*GateSim, eqwave.Input, *wave.Waveform, []eqwave.Technique) {
	t.Helper()
	tech := device.Default130()
	vdd := tech.Vdd
	gate := NewInverterChainSim(tech, []float64{1}, 1e-12)
	r1 := wave.RampThroughPoint(vdd/150e-12, 0.5e-9, vdd/2, 0, vdd)
	noisy := r1.ToWaveform(0, 2e-9, 64)
	trueOut := wave.FromFunc(func(tt float64) float64 {
		return vdd - r1.Shifted(60e-12).At(tt)
	}, 0, 2e-9, 64)
	in := eqwave.Input{Noisy: noisy, Noiseless: noisy, NoiselessOut: trueOut, Vdd: vdd}
	techs := []eqwave.Technique{
		fixedRamp{"A", r1}, fixedRamp{"B", r1.Shifted(20e-12)},
	}
	return gate, in, trueOut, techs
}

// TestCompareTechniquesWithCancel: a canceled context stops the comparison
// with an error matching telemetry.ErrCanceled.
func TestCompareTechniquesWithCancel(t *testing.T) {
	gate, in, trueOut, techs := compareFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Ctx: ctx, Techniques: techs,
	})
	if err == nil {
		t.Fatal("nil error under canceled context")
	}
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Errorf("error %v does not match telemetry.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
}

// TestCompareTechniquesWithDefaultsEquivalence: the zero options (no
// context, no registry) and an explicit context plus registry produce a
// bit-identical Comparison — cancellation and telemetry never change the
// numbers.
func TestCompareTechniquesWithDefaultsEquivalence(t *testing.T) {
	gate, in, trueOut, techs := compareFixture(t)
	bare, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{Techniques: techs})
	if err != nil {
		t.Fatalf("CompareTechniquesWith (defaults): %v", err)
	}
	full, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Ctx: context.Background(), Techniques: techs, Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatalf("CompareTechniquesWith (ctx + telemetry): %v", err)
	}
	if !reflect.DeepEqual(bare, full) {
		t.Errorf("defaults and explicit options differ:\nbare %+v\nfull %+v", bare, full)
	}
}

// TestCompareTechniquesWithTelemetry: the options-struct path must leave
// per-technique fit timers and replay counters in the registry, and must
// reset the gate's temporarily-borrowed registry afterwards.
func TestCompareTechniquesWithTelemetry(t *testing.T) {
	gate, in, trueOut, techs := compareFixture(t)
	reg := telemetry.New()
	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Techniques: techs, Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	if gate.Telemetry != nil {
		t.Error("gate.Telemetry not reset after the comparison")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"A", "B"} {
		if ts := snap.Timers["eqwave.fit_seconds."+name]; ts.Count != 1 {
			t.Errorf("fit timer for %s observed %d times, want 1", name, ts.Count)
		}
	}
	if got := snap.Counters["core.replay_misses"]; got != int64(cmp.ReplayMisses) {
		t.Errorf("core.replay_misses = %d, want %d", got, cmp.ReplayMisses)
	}
	// The replays themselves ran under the borrowed registry.
	if got := snap.Counters["spice.transients"]; got <= 0 {
		t.Errorf("spice.transients = %d, want > 0 (replay transients)", got)
	}
}
