package spice

import (
	"math"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/wave"
)

// TestAdaptiveRCAccuracy: the adaptive integrator must track the analytic
// RC exponential within tolerance while taking fewer steps than the fixed
// grid would over the long quiet tail.
func TestAdaptiveRCAccuracy(t *testing.T) {
	build := func() *circuit.Circuit {
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
			T: []float64{0.1e-9, 0.101e-9}, V: []float64{0, 1},
		})
		ckt.AddResistor(in, out, 1e3)
		ckt.AddCapacitor(out, circuit.Ground, 1e-12) // tau = 1 ns
		return ckt
	}
	// 50 ns window with a 1 ns tau: a fixed 5 ps grid needs 10000 steps.
	fixedSteps := int(50e-9 / 5e-12)

	sim := New(build(), Options{Stop: 50e-9, Step: 5e-12, Adaptive: true, LTETol: 0.5e-3})
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []float64{0.5e-9, 1e-9, 3e-9, 10e-9, 40e-9} {
		want := 1 - math.Exp(-(tc-0.101e-9)/1e-9)
		if tc < 0.101e-9 {
			want = 0
		}
		if got := w.At(tc); math.Abs(got-want) > 5e-3 {
			t.Errorf("v(out) at %g: %.5f want %.5f", tc, got, want)
		}
	}
	if res.Steps() >= fixedSteps/4 {
		t.Errorf("adaptive run took %d steps; expected well below fixed %d", res.Steps(), fixedSteps)
	}
	t.Logf("adaptive: %d steps vs %d fixed", res.Steps(), fixedSteps)
}

// TestAdaptiveMatchesFixedOnGateDelay: the adaptive mode must reproduce a
// fixed-step gate delay within a couple of picoseconds.
func TestAdaptiveMatchesFixedOnGateDelay(t *testing.T) {
	tech := device.Default130()
	build := func() *circuit.Circuit {
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		vdd := ckt.Node("vdd")
		ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
		ckt.AddVSource("vin", in, circuit.Ground,
			circuit.SlewRamp(0.2e-9, 150e-12, tech.Vdd, wave.Rising))
		ckt.AddInverter("u1", tech, 4, in, out, vdd)
		ckt.AddCapacitor(out, circuit.Ground, 20e-15)
		return ckt
	}
	delayOf := func(opts Options) float64 {
		sim := New(build(), opts)
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		wi, _ := res.Waveform("in")
		wo, _ := res.Waveform("out")
		ti, err := wi.LastCrossing(0.5 * tech.Vdd)
		if err != nil {
			t.Fatal(err)
		}
		to, err := wo.LastCrossing(0.5 * tech.Vdd)
		if err != nil {
			t.Fatal(err)
		}
		return to - ti
	}
	fixed := delayOf(Options{Stop: 1.5e-9, Step: 0.25e-12})
	adaptive := delayOf(Options{Stop: 1.5e-9, Step: 1e-12, Adaptive: true, LTETol: 1e-3})
	if math.Abs(fixed-adaptive) > 2e-12 {
		t.Errorf("delay fixed %.2f ps vs adaptive %.2f ps", fixed*1e12, adaptive*1e12)
	}
}

// TestAdaptiveBreakpointRestartsAtStep is the regression test for the
// adaptive breakpoint bug: a source corner forces two backward-Euler steps,
// which the LTE check skips, and those steps used to run at the base step
// grown through the quiet stretch before the corner (up to MaxStep). A ramp
// met after a long quiet stretch was then integrated by two unchecked
// first-order MaxStep steps, which moved its crossings by picoseconds. The
// forced steps now restart from Step.
func TestAdaptiveBreakpointRestartsAtStep(t *testing.T) {
	const step = 1e-12
	build := func() *circuit.Circuit {
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		// 3 ns of quiet, then a 100 ps ramp into a 20 ps RC.
		ckt.AddVSource("vin", in, circuit.Ground, circuit.RampSource(3e-9, 100e-12, 0, 1))
		ckt.AddResistor(in, out, 1e3)
		ckt.AddCapacitor(out, circuit.Ground, 20e-15)
		return ckt
	}
	crossing := func(opts Options) (float64, *Result) {
		res, err := New(build(), opts).Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		w, err := res.Waveform("out")
		if err != nil {
			t.Fatal(err)
		}
		tc, err := w.LastCrossing(0.5)
		if err != nil {
			t.Fatal(err)
		}
		return tc, res
	}
	fixed, _ := crossing(Options{Stop: 4e-9, Step: step})
	adaptive, res := crossing(Options{Stop: 4e-9, Step: step, Adaptive: true,
		LTETol: 1e-3, MaxStep: 20 * step, RecordSteps: true})

	bps := 0
	for i, st := range res.Trace {
		if !st.HitBP {
			continue
		}
		bps++
		for _, next := range res.Trace[i+1 : min(i+3, len(res.Trace))] {
			if next.H > step*(1+1e-9) {
				t.Errorf("step after the breakpoint at %.4g ns is %.3g ps, want <= %.3g ps",
					st.T*1e9, next.H*1e12, step*1e12)
			}
		}
	}
	if bps != 2 {
		t.Fatalf("hit %d breakpoints, want the ramp's 2", bps)
	}
	if d := math.Abs(adaptive - fixed); d > 0.1e-12 {
		t.Errorf("adaptive crossing %.4f ps from the fixed-step run, want <= 0.1 ps", d*1e12)
	}
}
