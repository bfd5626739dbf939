package circuit

import (
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/linalg"
	"noisewave/internal/wave"
)

// TestCapacitorCompanionCycle exercises the Dynamic interface directly:
// a capacitor charged through a resistor with the backward-Euler companion
// model must follow the discrete recurrence v_{n+1} = (v_n + h/RC·V) /
// (1 + h/RC).
func TestCapacitorCompanionCycle(t *testing.T) {
	const (
		r   = 1e3
		cap = 1e-12
		vs  = 1.0
		h   = 50e-12
	)
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("v", in, Ground, DCSource(vs))
	c.AddResistor(in, out, r)
	capEl := c.AddCapacitor(out, Ground, cap)

	a := NewAssembler(c)
	// DC init: v(out) settles to vs through the open capacitor.
	solve := func(mode StampMode) {
		a.Reset()
		for _, e := range c.Elements() {
			e.Stamp(a, mode)
		}
		for i := 0; i < c.NumNodes(); i++ {
			a.A.Add(i, i, 1e-12)
		}
		x, err := linalg.SolveDense(a.A, a.B)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		copy(a.X, x)
	}
	// Start discharged: initialize state at v=0 by hand.
	capEl.InitState(a) // X is zero → vPrev = 0
	v := 0.0
	ic := IntegrationCoeffs{Geq: 1 / h, HistI: 0} // backward Euler
	for step := 0; step < 20; step++ {
		capEl.BeginStep(ic)
		solve(Transient)
		capEl.EndStep(a)
		// Discrete BE recurrence.
		k := h / (r * cap)
		v = (v + k*vs) / (1 + k)
		if got := a.V(out); math.Abs(got-v) > 1e-9 {
			t.Fatalf("step %d: v(out)=%.9f want %.9f", step, got, v)
		}
	}
	if a.V(out) < 0.5 {
		t.Errorf("capacitor should be half charged after 20 steps, got %.3f", a.V(out))
	}
}

func TestAddInverterConvenience(t *testing.T) {
	tech := device.Default130()
	c := New()
	c.AddInverter("u1", tech, 2, c.Node("a"), c.Node("y"), c.Node("vdd"))
	// Two FETs + three capacitors.
	if got := len(c.Elements()); got != 5 {
		t.Errorf("elements = %d, want 5", got)
	}
	if c.NumVSources() != 0 {
		t.Errorf("NumVSources = %d", c.NumVSources())
	}
	names := c.NodeNames()
	if len(names) != 3 {
		t.Errorf("NodeNames = %v", names)
	}
}

func TestAddCellErrorPaths(t *testing.T) {
	tech := device.Default130()
	for _, cell := range []device.Cell{
		device.Inverter(tech, 1),
		device.Buffer(tech, 4),
		device.AOI21(tech, 1),
		device.OAI21(tech, 1),
	} {
		c := New()
		// Deliberately wrong input count (0 inputs).
		err := c.AddCell("u", cell, CellPins{Out: c.Node("y"), Vdd: c.Node("vdd")})
		if err == nil {
			t.Errorf("%s with no inputs accepted", cell.Name)
		}
	}
	// Unknown kind.
	c := New()
	bad := device.Cell{Name: "X", Kind: device.CellKind(99), Drive: 1, Tech: tech}
	if err := c.AddCell("u", bad, CellPins{
		Inputs: []NodeID{c.Node("a")}, Out: c.Node("y"), Vdd: c.Node("vdd"),
	}); err == nil {
		t.Error("unknown cell kind accepted")
	}
}

// TestStampLinearRHSMatchesStampLinear builds a representative RC+vsource
// circuit, stamps the full baseline and the RHS-only restamp from the same
// starting point, and requires bitwise-equal B vectors.
func TestStampLinearRHSMatchesStampLinear(t *testing.T) {
	c := New()
	a, bNode, out := c.Node("a"), c.Node("b"), c.Node("out")
	c.AddVSource("vin", a, Ground, SlewRamp(1e-10, 40e-12, 1.2, wave.Rising))
	c.AddResistor(a, bNode, 100)
	cap1 := c.AddCapacitor(bNode, Ground, 1e-15)
	c.AddResistor(bNode, out, 250)
	cap2 := c.AddCapacitor(out, a, 2e-15)
	c.AddVSource("vdd", out, Ground, DCSource(1.2))

	p := NewPartition(c)
	asm := NewAssembler(c)
	asm.Time = 1.3e-10
	ic := IntegrationCoeffs{Geq: 2 / 1e-12, HistI: -1}
	for _, cp := range []*Capacitor{cap1, cap2} {
		cp.BeginStep(ic)
		cp.vPrev = 0.3
		cp.iPrev = 1e-6
	}

	asm.Reset()
	p.StampLinear(asm, Transient)
	wantB := append([]float64(nil), asm.B...)

	asm.Reset()
	p.StampLinearRHS(asm, Transient)
	for i := range wantB {
		if asm.B[i] != wantB[i] {
			t.Fatalf("B[%d]: RHS-only %g vs full %g", i, asm.B[i], wantB[i])
		}
	}

	// DC mode: capacitors open in both paths.
	asm.Reset()
	p.StampLinear(asm, DC)
	wantB = append(wantB[:0], asm.B...)
	asm.Reset()
	p.StampLinearRHS(asm, DC)
	for i := range wantB {
		if asm.B[i] != wantB[i] {
			t.Fatalf("DC B[%d]: RHS-only %g vs full %g", i, asm.B[i], wantB[i])
		}
	}
}
