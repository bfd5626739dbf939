package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"noisewave/internal/liberty"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/sta"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// noisy-sta is the paper's deployment target: SGDP inside full-chip STA.
// A fixed ladder of 50 netgen meshes from 10³ to 3·10⁴ gates, with
// noise-site fractions of 0, 2% and 10% cycling along it, because pass cost
// grows with size times noise density. Many close rungs, rather than a few
// far-apart sizes, keep the latency distribution dense around its
// quantiles, so the median and tail do not sit on a gap between sizes. One operation is one noise-aware timing pass
// of one design at 2 workers (annotate, RunCtx, ComputeRequired,
// WorstSlack). Each design is generated untimed, timed for its passes, and
// dropped. No transistor-level simulation runs here.
const (
	staDesigns   = 50
	staMinGates  = 1000
	staMaxGates  = 30000
	staWorkers   = 2
	staRequired  = 5e-9 // required arrival on every primary output
	staCheckCap  = 3000 // designs up to this size are checked against RunReference in set-up
	staPassRate  = 0.3  // passes per design per second of run on the 2-core reference box
	staRefFile   = "noisysta-seed1.json"
	staSeedScale = 1000
)

var noisySTAWorkload = workload{
	name: "noisy-sta",
	ops: func(seconds float64) int {
		return staDesigns * max(1, int(math.Round(seconds*staPassRate)))
	},
	setup: setupNoisySTA,
}

// staDesign is one rung of the ladder.
type staDesign struct {
	cfg  netgen.Config
	frac float64
}

// staLadder returns the seeded design ladder: sizes are fixed (geometric
// from staMinGates to staMaxGates) so every seed times the same amount of
// logic; the seed changes each mesh's wiring and noise-site placement.
func staLadder(seed int64) []staDesign {
	fracs := []float64{0, 0.02, 0.10}
	out := make([]staDesign, staDesigns)
	for i := range out {
		gates := staMinGates * math.Pow(float64(staMaxGates)/staMinGates, float64(i)/(staDesigns-1))
		cfg := netgen.DefaultConfig(int(math.Round(gates)))
		cfg.Seed = seed*staSeedScale + int64(i)
		out[i] = staDesign{cfg: cfg, frac: fracs[i%len(fracs)]}
	}
	return out
}

// staDigest is the committed default-seed outcome of one design.
type staDigest struct {
	Gates       int     `json:"gates"`
	WorstSlackS float64 `json:"worst_slack_s"`
	Conversions int64   `json:"noise_conversions"`
}

type noisySTAInst struct {
	lib    *liberty.Library
	ladder []staDesign
	reg    *telemetry.Registry
	ref    []staDigest // default seed only
	// checks holds set-up's reference-walk comparisons until the first
	// run reports them.
	checks runStats
	// slack holds the first pass's worst slack per design, so later passes
	// (repeats and the traced run) must reproduce it bit for bit.
	slack map[int]float64
	// Per-pass side measurements of the last run, for the layer metrics.
	genMs, reqMs []float64
	conv         *timedTech // the timer's default technique, timed; traced runs only
}

// staGenerated is one design ready to time.
type staGenerated struct {
	d     *netlist.Design
	sites []netgen.NoiseSite
}

func generateDesign(lib *liberty.Library, sd staDesign) (staGenerated, error) {
	d, err := netgen.Generate(sd.cfg)
	if err != nil {
		return staGenerated{}, err
	}
	return staGenerated{d: d, sites: netgen.NoiseSites(sd.cfg, d, lib.Vdd, sd.frac)}, nil
}

// newTimer builds the timer of one pass with every noise site annotated.
func (s *noisySTAInst) newTimer(g staGenerated) *sta.Timer {
	timer := sta.New(s.lib, g.d)
	timer.Wire = sta.ElmoreWire
	if s.conv != nil {
		timer.Technique = s.conv
	}
	for _, site := range g.sites {
		timer.Annotate(site.Net, &sta.NoiseAnnotation{
			Noisy: site.Noisy, Noiseless: site.Noiseless, NoiselessOut: site.NoiselessOut, Edge: site.Edge,
		})
	}
	return timer
}

func constraints(d *netlist.Design) map[string]float64 {
	c := make(map[string]float64, len(d.Outputs))
	for _, o := range d.Outputs {
		c[o] = staRequired
	}
	return c
}

func setupNoisySTA(ctx context.Context, seed int64, _ int, reg *telemetry.Registry) (instance, error) {
	s := &noisySTAInst{lib: netgen.SyntheticLibrary(), ladder: staLadder(seed), reg: reg}
	if seed == defaultSeed {
		if err := readJSON(refPath(staRefFile), &s.ref); err != nil {
			return nil, fmt.Errorf("read reference: %w", err)
		}
	}
	// The small designs double as warm-up: each is timed by the levelized
	// engine and by the retained reference walk, which must agree exactly.
	for i, sd := range s.ladder {
		if sd.cfg.Gates > staCheckCap {
			continue
		}
		g, err := generateDesign(s.lib, sd)
		if err != nil {
			return nil, err
		}
		s.checks.attempted++
		if err := s.checkReference(ctx, g); err != nil {
			s.checks.fail("design %d: %v", i, err)
		}
	}
	return s, nil
}

// checkReference times g with RunCtx and with the reference walk and
// compares every net.
func (s *noisySTAInst) checkReference(ctx context.Context, g staGenerated) error {
	got, err := s.newTimer(g).RunCtx(ctx, sta.RunOptions{Workers: staWorkers})
	if err != nil {
		return err
	}
	want, err := s.newTimer(g).RunReference()
	if err != nil {
		return fmt.Errorf("reference walk: %w", err)
	}
	if len(got.Nets) != len(want.Nets) {
		return fmt.Errorf("%d nets timed, reference walk %d", len(got.Nets), len(want.Nets))
	}
	for name, w := range want.Nets {
		if g := got.Nets[name]; g == nil || *g != *w {
			return fmt.Errorf("net %s differs from the reference walk", name)
		}
	}
	return nil
}

func (s *noisySTAInst) run(ctx context.Context, n int, tr *trace.Tracer) runStats {
	passes := max(1, n/staDesigns)
	s.conv = nil
	if tr != nil {
		s.conv = &timedTech{Technique: sta.New(s.lib, nil).Technique}
	}
	first := s.slack == nil
	if first {
		s.slack = make(map[int]float64, staDesigns)
	}
	s.genMs, s.reqMs = s.genMs[:0], s.reqMs[:0]
	st := s.checks
	s.checks = runStats{}
	for i, sd := range s.ladder {
		t0 := time.Now()
		g, err := generateDesign(s.lib, sd)
		s.genMs = append(s.genMs, ms(time.Since(t0)))
		if err != nil {
			st.attempted += passes
			st.fail("design %d: generate: %v", i, err)
			continue
		}
		for p := 0; p < passes; p++ {
			s.pass(ctx, i, i*passes+p, g, tr, &st, first && p == 0)
		}
	}
	return st
}

// staOutcome is what one timing pass produced.
type staOutcome struct {
	slack       float64
	conversions int64
	lat, req    time.Duration // whole pass; ComputeRequired + WorstSlack
}

// timePass runs one full noise-aware timing pass of g.
func (s *noisySTAInst) timePass(ctx context.Context, g staGenerated, tr *trace.Tracer) (staOutcome, error) {
	conv := s.reg.Counter("sta.noise_conversions")
	conv0 := conv.Value()
	t0 := time.Now()
	timer := s.newTimer(g)
	res, err := timer.RunCtx(ctx, sta.RunOptions{Workers: staWorkers, Telemetry: s.reg, Tracer: tr})
	if err != nil {
		return staOutcome{lat: time.Since(t0)}, fmt.Errorf("run: %w", err)
	}
	tReq := time.Now()
	req, err := timer.ComputeRequired(res, constraints(g.d))
	if err != nil {
		return staOutcome{lat: time.Since(t0)}, fmt.Errorf("required times: %w", err)
	}
	_, _, slack, ok := req.WorstSlack(res)
	out := staOutcome{slack: slack, conversions: conv.Value() - conv0, lat: time.Since(t0), req: time.Since(tReq)}
	if !ok {
		return out, fmt.Errorf("no constrained output has a slack")
	}
	return out, nil
}

// pass times operation op, one pass of design i, and checks it.
func (s *noisySTAInst) pass(ctx context.Context, i, op int, g staGenerated, tr *trace.Tracer, st *runStats, first bool) {
	st.attempted++
	o, err := s.timePass(ctx, g, tr)
	st.wall += o.lat
	s.reqMs = append(s.reqMs, ms(o.req))
	switch {
	case err != nil:
		st.fail("design %d: %v", i, err)
		return
	case !first && s.slack[i] != o.slack:
		st.fail("design %d: worst slack %g, first pass %g", i, o.slack, s.slack[i])
		return
	case s.ref != nil && s.ref[i] != (staDigest{Gates: len(g.d.Gates), WorstSlackS: o.slack, Conversions: o.conversions}):
		st.fail("design %d: worst slack %g with %d conversions over %d gates, reference %+v",
			i, o.slack, o.conversions, len(g.d.Gates), s.ref[i])
		return
	}
	if first {
		s.slack[i] = o.slack
	}
	st.done(op, o.lat, float64(len(g.d.Gates)))
}

func (s *noisySTAInst) layers(spans []trace.SpanRecord, d map[string]int64, st runStats) map[string]float64 {
	runs := 0
	var run, build, prop, mat, self, levels float64
	children := map[uint64]float64{}
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "sta.build":
			build += ms(sp.Duration)
		case "sta.propagate":
			prop += ms(sp.Duration)
		case "sta.materialize":
			mat += ms(sp.Duration)
		default:
			continue
		}
		children[sp.Parent] += ms(sp.Duration)
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Name == "sta.run" {
			runs++
			run += ms(sp.Duration)
			self += ms(sp.Duration) - children[sp.ID]
			levels += attrInt(sp, "levels")
		}
	}
	v := map[string]float64{
		"sta.run_ms":            perOp(run, runs),
		"sta.build_ms":          perOp(build, runs),
		"sta.propagate_ms":      perOp(prop, runs),
		"sta.materialize_ms":    perOp(mat, runs),
		"sta.run_self_ms":       perOp(self, runs),
		"sta.required_ms":       mean(s.reqMs),
		"sta.levels":            perOp(levels, runs),
		"sta.noise_conversions": perOp(float64(d["sta.noise_conversions"]), runs),
		"netgen.generate_ms":    mean(s.genMs),
	}
	if s.conv != nil {
		v["sta.conversion_us"] = perOp(float64(s.conv.nanos.Load())/1e3, int(s.conv.calls.Load()))
	}
	return v
}

func (s *noisySTAInst) close() {}

// writeNoisySTAReference records the default-seed digest: each design's
// gate count, worst slack and noise-conversion count.
func writeNoisySTAReference(ctx context.Context) error {
	s := &noisySTAInst{lib: netgen.SyntheticLibrary(), ladder: staLadder(defaultSeed), reg: telemetry.New()}
	var ref []staDigest
	for i, sd := range s.ladder {
		g, err := generateDesign(s.lib, sd)
		if err != nil {
			return err
		}
		o, err := s.timePass(ctx, g, nil)
		if err != nil {
			return fmt.Errorf("design %d: %w", i, err)
		}
		ref = append(ref, staDigest{Gates: len(g.d.Gates), WorstSlackS: o.slack, Conversions: o.conversions})
	}
	return writeJSON(refPath(staRefFile), ref)
}
