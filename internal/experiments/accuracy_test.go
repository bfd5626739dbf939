package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sync"
	"testing"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// The accuracy gate of the adaptive step control. ACCURACY_table1.json
// records, for the paper's 200 Table 1 alignment cases of each
// configuration, the golden output arrival and every technique's estimated
// arrival, all from fixed 1 ps transients. TestAccuracyTable1 reruns the
// cases under the production default (LTE step control) and holds them to
// that oracle.
//
//	go test -run '^TestAccuracyTable1$' ./internal/experiments/ -args -update  # regenerate (fixed step)
//	go test -run '^TestAccuracyTable1$' ./internal/experiments/ -args -full    # every case (make accuracy)
//
// Without -full the test checks every accuracyStride-th case.
var (
	updateAccuracy = flag.Bool("update", false, "regenerate "+accuracyFile+" from fixed-step runs")
	fullAccuracy   = flag.Bool("full", false, "check every "+accuracyFile+" case, not the strided subset")
)

const (
	accuracyFile   = "../../ACCURACY_table1.json"
	accuracyCases  = 200 // per configuration, as in the paper
	accuracyStride = 8
	// goldenTol bounds the adaptive golden arrival's distance from the
	// fixed-step one; estTol bounds each technique's estimated arrival.
	goldenTol = 0.1e-12
	estTol    = 0.5e-12
)

// wls5Outliers lists, per configuration, the cases whose WLS5 estimated
// arrival moves by more than estTol between fixed and adaptive stepping.
// On these Configuration II alignments WLS5 fits a nearly flat Γeff (a
// 2.5–10.5 ns transition against about 0.4 ns on a typical alignment),
// whose 0.5·Vdd crossing is ill-conditioned: the golden waveform's
// sub-millivolt change under the adaptive grid moves it by 0.5–11 ps
// (ROADMAP item 4). The list is exact: a case missing from it, or listed
// but within estTol, fails.
var wls5Outliers = map[string][]int{
	"I":  {},
	"II": {96, 98, 105, 109, 114, 118, 145},
}

type accuracyBaseline struct {
	Description    string           `json:"description"`
	StepS          float64          `json:"step_s"`
	CasesPerConfig int              `json:"cases_per_config"`
	Configs        []accuracyConfig `json:"configs"`
}

type accuracyConfig struct {
	Config string         `json:"config"`
	Cases  []accuracyCase `json:"cases"`
}

type accuracyCase struct {
	Index          int       `json:"index"`
	OffsetsS       []float64 `json:"offsets_s"`
	GoldenArrivalS float64   `json:"golden_arrival_s"`
	// EstArrivalS maps technique name to estimated output arrival; a
	// technique that made no prediction is absent.
	EstArrivalS map[string]float64 `json:"est_arrival_s"`
}

// accuracyRunner runs Table 1 alignment cases one at a time, exactly as a
// RunTable1 worker does, with the noiseless reference precomputed.
type accuracyRunner struct {
	cfg         xtalk.Config
	bench       *xtalk.Bench
	gate        *core.GateSim
	nlIn, nlOut *wave.Waveform
}

func newAccuracyRunner(cfg xtalk.Config) (*accuracyRunner, error) {
	bench, err := xtalk.NewBench(cfg)
	if err != nil {
		return nil, err
	}
	gate := core.NewInverterChainSim(cfg.Tech,
		[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)
	gate.FixedStep = cfg.FixedStep
	r := &accuracyRunner{cfg: cfg, bench: bench, gate: gate}
	r.nlIn, r.nlOut, err = bench.RunNoiselessCtx(context.Background(), 0.3e-9)
	return r, err
}

func (r *accuracyRunner) run(i int) (accuracyCase, error) {
	const victimStart = 0.3e-9
	offsets := caseOffsets(i, r.cfg.Aggressors, accuracyCases, 1e-9)
	starts := make([]float64, len(offsets))
	for k, o := range offsets {
		starts[k] = victimStart + o
	}
	nIn, nOut, err := r.bench.RunCtx(context.Background(), victimStart, starts)
	if err != nil {
		return accuracyCase{}, err
	}
	in := eqwave.Input{
		Noisy: nIn, Noiseless: r.nlIn, NoiselessOut: r.nlOut,
		Vdd: r.cfg.Tech.Vdd, Edge: r.cfg.VictimEdge, P: eqwave.DefaultP,
	}
	cmp, err := core.CompareTechniquesWith(r.gate, in, nOut, core.CompareOptions{})
	if err != nil {
		return accuracyCase{}, err
	}
	c := accuracyCase{Index: i, OffsetsS: offsets, GoldenArrivalS: cmp.TrueArrival,
		EstArrivalS: make(map[string]float64, len(cmp.Results))}
	for _, res := range cmp.Results {
		if res.Err == nil {
			c.EstArrivalS[res.Name] = res.EstArrival
		}
	}
	return c, nil
}

func accuracyConfigs() []xtalk.Config {
	tech := device.Default130()
	return []xtalk.Config{xtalk.ConfigurationI(tech), xtalk.ConfigurationII(tech)}
}

func TestAccuracyTable1(t *testing.T) {
	if *updateAccuracy {
		writeAccuracyBaseline(t)
		return
	}
	raw, err := os.ReadFile(accuracyFile)
	if err != nil {
		t.Fatal(err)
	}
	var base accuracyBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	stride := accuracyStride
	if *fullAccuracy {
		stride = 1
	}
	byName := map[string]accuracyConfig{}
	for _, bc := range base.Configs {
		byName[bc.Config] = bc
	}
	for _, cfg := range accuracyConfigs() {
		bc, ok := byName[cfg.Name]
		if !ok || len(bc.Cases) != accuracyCases {
			t.Fatalf("%s: configuration %s missing or not %d cases", accuracyFile, cfg.Name, accuracyCases)
		}
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			checkAccuracy(t, cfg, bc.Cases, stride)
		})
	}
}

func checkAccuracy(t *testing.T, cfg xtalk.Config, want []accuracyCase, stride int) {
	r, err := newAccuracyRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outlier := map[int]bool{}
	for _, i := range wls5Outliers[cfg.Name] {
		outlier[i] = true
	}
	var worstGolden, worstEst float64
	for i := 0; i < len(want); i += stride {
		w := want[i]
		got, err := r.run(i)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		d := math.Abs(got.GoldenArrivalS - w.GoldenArrivalS)
		worstGolden = math.Max(worstGolden, d)
		if d > goldenTol {
			t.Errorf("case %d: golden arrival %.4f ps from the fixed-step run (tolerance %.2f ps)",
				i, d*1e12, goldenTol*1e12)
		}
		for _, tq := range eqwave.All() {
			name := tq.Name()
			ga, gok := got.EstArrivalS[name]
			wa, wok := w.EstArrivalS[name]
			if gok != wok {
				t.Errorf("case %d: %s predicted an arrival under one step mode only (adaptive %v, fixed %v)",
					i, name, gok, wok)
				continue
			}
			if !gok {
				continue
			}
			d := math.Abs(ga - wa)
			switch {
			case name == "WLS5" && outlier[i]:
				if d <= estTol {
					t.Errorf("case %d: listed WLS5 outlier is within %.2f ps (%.4f ps); drop it from wls5Outliers",
						i, estTol*1e12, d*1e12)
				}
			case d > estTol:
				t.Errorf("case %d: %s estimated arrival %.4f ps from the fixed-step run (tolerance %.2f ps)",
					i, name, d*1e12, estTol*1e12)
			default:
				worstEst = math.Max(worstEst, d)
			}
		}
	}
	t.Logf("config %s, every %d. case: worst golden deviation %.4f ps, worst technique deviation %.4f ps (WLS5 outliers excluded)",
		cfg.Name, stride, worstGolden*1e12, worstEst*1e12)
}

// writeAccuracyBaseline regenerates ACCURACY_table1.json from fixed 1 ps
// runs of every case, one goroutine per configuration.
func writeAccuracyBaseline(t *testing.T) {
	cfgs := accuracyConfigs()
	base := accuracyBaseline{
		Description: "Table 1 alignment cases at the fixed 1 ps step: golden output arrival and each technique's " +
			"estimated output arrival, in seconds. The oracle of the adaptive step control " +
			"(internal/experiments TestAccuracyTable1; regenerate with -args -update).",
		StepS:          cfgs[0].Step,
		CasesPerConfig: accuracyCases,
		Configs:        make([]accuracyConfig, len(cfgs)),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	for k, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg.FixedStep = true
			r, err := newAccuracyRunner(cfg)
			if err != nil {
				errs[k] = err
				return
			}
			bc := accuracyConfig{Config: cfg.Name}
			for i := 0; i < accuracyCases; i++ {
				c, err := r.run(i)
				if err != nil {
					errs[k] = err
					return
				}
				bc.Cases = append(bc.Cases, c)
			}
			base.Configs[k] = bc
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.MarshalIndent(base, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(accuracyFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", accuracyFile)
}
