package xtalk

import (
	"context"
	"errors"
	"testing"

	"noisewave/internal/faultinject"
	"noisewave/internal/spice"
)

// TestChaosSalvagePartialWaveforms: when the transient becomes
// unrecoverable mid-run (sustained NaN poisoning past a warm-up window),
// RunReportCtx returns the error together with the waveform prefixes
// recorded up to the failure — long enough to cover the victim transition
// — and a recovery report marked exhausted.
func TestChaosSalvagePartialWaveforms(t *testing.T) {
	cfg := fastConfigI()
	cfg.Inject = faultinject.New(faultinject.Config{NaNEvery: 1, NaNAfter: 500})
	in, out, rec, err := cfg.RunReportCtx(context.Background(), 0.3e-9, []float64{0.3e-9})
	if err == nil {
		t.Fatal("sustained NaN poisoning did not fail the run")
	}
	if !errors.Is(err, spice.ErrNewton) {
		t.Errorf("error %v does not match spice.ErrNewton", err)
	}
	if !rec.Exhausted || rec.NonFinite == 0 {
		t.Errorf("recovery report not exhausted with non-finite rejections: %v", rec)
	}
	if in == nil || out == nil {
		t.Fatal("no waveform prefixes salvaged")
	}
	// The poison starts after 500 of the adaptive transient's ~610
	// solves, at ~1.7 ns: the prefix must reach past the victim
	// transition (edge at 0.3 ns + 150 ps slew).
	if in.End() < 1e-9 {
		t.Errorf("salvaged prefix ends at %.3g s, want ≥ 1 ns", in.End())
	}
	if _, err := in.LastCrossing(0.5 * cfg.Tech.Vdd); err != nil {
		t.Errorf("salvaged input prefix does not cover the transition: %v", err)
	}
	// RunCtx keeps the historical contract: nil waveforms on error.
	nIn, nOut, err := cfg.RunCtx(context.Background(), 0.3e-9, []float64{0.3e-9})
	if err == nil || nIn != nil || nOut != nil {
		t.Error("RunCtx must drop partial waveforms on error")
	}
}
