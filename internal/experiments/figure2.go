package experiments

import (
	"fmt"

	"noisewave/internal/core"
	"noisewave/internal/eqwave"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// Figure2Series reproduces the data behind the paper's Figure 2: the
// noiseless sensitivity ρ (panel a) and the remapped sensitivity ρ_eff,
// the fitted Γeff and the resulting output v_out^eff against the reference
// noisy pair (panel b). Voltages are in volts, ρ is scaled by 0.2 exactly
// as the figure's legend does.
type Figure2Series struct {
	// Panel (a): the noiseless transition.
	NoiselessIn  *wave.Waveform
	NoiselessOut *wave.Waveform
	RhoNoiseless *wave.Waveform // 0.2·ρ_noiseless over the critical region

	// Panel (b): one representative noisy case.
	NoisyIn   *wave.Waveform
	NoisyOut  *wave.Waveform // reference ("Hspice") output
	RhoEff    *wave.Waveform // 0.2·ρ_eff over the noisy critical region
	GammaEff  wave.Ramp
	GammaWave *wave.Waveform // Γeff sampled over the noisy window
	EstOut    *wave.Waveform // v_out^eff (proposed)
}

// Figure2Options selects the noisy case shown in panel (b). The embedded
// SweepOptions carries cancellation and telemetry; Workers/Seed/Progress
// are ignored (Figure 2 is a single case, not a sweep).
type Figure2Options struct {
	// Offset of the aggressor edge relative to the victim edge (a mid-
	// transition hit by default).
	Offset float64
	// P is the technique sample count.
	P int

	SweepOptions
}

// RunFigure2 regenerates both panels of Figure 2 for the given
// configuration. Cancellation via opts.Ctx aborts the in-flight transient
// and returns an error matching telemetry.ErrCanceled (no partial series).
func RunFigure2(cfg xtalk.Config, opts Figure2Options) (*Figure2Series, error) {
	const victimStart = 0.3e-9
	if opts.Offset == 0 {
		opts.Offset = 0.05e-9
	}
	defer opts.Telemetry.Timer("experiments.figure2.seconds").Start()()
	cfg.Telemetry = opts.Telemetry
	ctx := opts.ctx()

	nlIn, nlOut, err := cfg.RunNoiselessCtx(ctx, victimStart)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 noiseless: %w", err)
	}
	starts := make([]float64, cfg.Aggressors)
	for k := range starts {
		starts[k] = victimStart + opts.Offset + float64(k)*40e-12
	}
	nIn, nOut, err := cfg.RunCtx(ctx, victimStart, starts)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 noisy: %w", err)
	}

	vdd := cfg.Tech.Vdd
	sens, err := eqwave.ComputeSensitivity(nlIn, nlOut, vdd, cfg.VictimEdge, 512)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 sensitivity: %w", err)
	}
	rhoNl := wave.MustNew(append([]float64(nil), sens.T...), scale(sens.Rho, 0.2))

	in := eqwave.Input{
		Noisy: nIn, Noiseless: nlIn, NoiselessOut: nlOut,
		Vdd: vdd, Edge: cfg.VictimEdge, P: opts.P,
	}
	sgdp := eqwave.NewSGDP()
	gamma, err := sgdp.Equivalent(in)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 SGDP: %w", err)
	}

	// ρ_eff over the noisy critical region (same remap SGDP Step 2 uses).
	tFirst, tLast, err := nIn.CriticalRegion(0.1*vdd, 0.9*vdd, cfg.VictimEdge)
	if err != nil {
		return nil, err
	}
	const nSamples = 512
	ts := make([]float64, nSamples)
	rhoEff := make([]float64, nSamples)
	for i := range ts {
		ts[i] = tFirst + (tLast-tFirst)*float64(i)/float64(nSamples-1)
		r, _ := sens.AtVoltage(nIn.At(ts[i]))
		rhoEff[i] = 0.2 * r
	}

	gate := core.NewInverterChainSim(cfg.Tech,
		[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)
	gate.Telemetry = opts.Telemetry
	gate.FixedStep = cfg.FixedStep
	start, stop := core.WindowFor(gamma, nOut, 0.2e-9)
	est, err := gate.OutputForRampCtx(ctx, gamma, start, stop)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 gate eval: %w", err)
	}

	return &Figure2Series{
		NoiselessIn:  nlIn,
		NoiselessOut: nlOut,
		RhoNoiseless: rhoNl,
		NoisyIn:      nIn,
		NoisyOut:     nOut,
		RhoEff:       wave.MustNew(ts, rhoEff),
		GammaEff:     gamma,
		GammaWave:    gamma.ToWaveform(nIn.Start(), nIn.End(), 256),
		EstOut:       est,
	}, nil
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = k * x
	}
	return out
}
