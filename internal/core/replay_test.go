package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/wave"
)

// fixedRamp is a stub technique that always emits the same Γeff,
// simulating techniques that converge to identical fits.
type fixedRamp struct {
	name string
	r    wave.Ramp
}

func (f fixedRamp) Name() string                               { return f.name }
func (f fixedRamp) Equivalent(eqwave.Input) (wave.Ramp, error) { return f.r, nil }

// replayFixture is a synthetic single-case comparison: a rising input and
// a falling output, both crossing vdd/2 so the reference arrival and delay
// are defined, plus the ramp r1 they are built on.
func replayFixture() (*GateSim, eqwave.Input, *wave.Waveform, wave.Ramp) {
	tech := device.Default130()
	vdd := tech.Vdd
	gate := NewInverterChainSim(tech, []float64{1}, 1e-12)
	r1 := wave.RampThroughPoint(vdd/150e-12, 0.5e-9, vdd/2, 0, vdd)
	noisy := r1.ToWaveform(0, 2e-9, 64)
	trueOut := wave.FromFunc(func(tt float64) float64 {
		return vdd - r1.Shifted(60e-12).At(tt)
	}, 0, 2e-9, 64)
	in := eqwave.Input{Noisy: noisy, Noiseless: noisy, NoiselessOut: trueOut, Vdd: vdd}
	return gate, in, trueOut, r1
}

// TestCompareTechniquesReplayCache: two techniques emitting the identical
// Γeff share one transistor-level replay, and the shared result is
// bit-identical for both; a distinct Γeff gets its own replay.
func TestCompareTechniquesReplayCache(t *testing.T) {
	gate, in, trueOut, r1 := replayFixture()
	r3 := r1.Shifted(20e-12) // clearly distinct case

	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{Techniques: []eqwave.Technique{
		fixedRamp{"A", r1}, fixedRamp{"B", r1}, fixedRamp{"C", r3},
	}})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	for _, r := range cmp.Results {
		if r.Err != nil {
			t.Fatalf("technique %s failed: %v", r.Name, r.Err)
		}
	}
	if cmp.ReplayMisses != 2 || cmp.ReplayHits != 1 {
		t.Errorf("replays: %d misses, %d hits; want 2 misses, 1 hit",
			cmp.ReplayMisses, cmp.ReplayHits)
	}
	a, _ := cmp.Result("A")
	b, _ := cmp.Result("B")
	c, _ := cmp.Result("C")
	if !reflect.DeepEqual(a.EstOut, b.EstOut) || a.EstArrival != b.EstArrival {
		t.Error("identical ramps should share one replayed output")
	}
	if math.Abs(c.EstArrival-a.EstArrival) < 1e-12 {
		t.Errorf("distinct ramp C should produce a distinct arrival (A %.4g, C %.4g)",
			a.EstArrival, c.EstArrival)
	}
}

// TestReplayReuseNeedsExactMatch: ramps that differ by far less than any
// technique error — here a 1e-17 s shift of the crossing — are still
// different ramps, and each is replayed on its own. Reusing one's replay
// for the other would report a result that no simulation of that ramp
// produced.
func TestReplayReuseNeedsExactMatch(t *testing.T) {
	gate, in, trueOut, r1 := replayFixture()
	r2 := r1.Shifted(1e-17)
	if r2 == r1 {
		t.Fatal("shifted ramp is bit-identical to the original; test is vacuous")
	}
	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{Techniques: []eqwave.Technique{
		fixedRamp{"A", r1}, fixedRamp{"B", r2},
	}})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	if cmp.ReplayMisses != 2 || cmp.ReplayHits != 0 {
		t.Errorf("replays: %d misses, %d hits; want 2 misses, 0 hits",
			cmp.ReplayMisses, cmp.ReplayHits)
	}
	// A fresh simulator replaying r1 alone reproduces A's output.
	gate2, _, _, _ := replayFixture()
	start, stop := WindowFor(r1, trueOut, 0.2e-9)
	want, err := gate2.OutputForRampCtx(context.Background(), r1, start, stop)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cmp.Result("A")
	if !reflect.DeepEqual(a.EstOut, want) {
		t.Error("technique A's output is not the replay of its own ramp")
	}
}
