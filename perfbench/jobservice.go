package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"noisewave/internal/jobs"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/obs/httpserver"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// job-service is the whole path: HTTP → jobs queue → experiments/sweep →
// solver. An in-process jobs.Manager (no DataDir: the fsync journal is
// left out, because shared-disk latency is not the program) sits behind
// httpserver.Server on loopback. A closed loop of two clients each sends
// POST /jobs, polls GET /jobs/{id} at a fixed interval, then sends GET
// /jobs/{id}/result. The seeded mix holds small table1 jobs (I/II),
// Monte-Carlo pushout jobs and STA jobs on small generated netlists; a
// quarter are resubmissions of the same client's earlier jobs, served from
// the content-addressed store, so cache hits (reads) sit beside fresh
// solves (writes).
const (
	jsClients      = 2
	jsRunners      = 2 // one runner per client: latency is service time, not a queueing lottery
	jsWorkers      = 1 // sweep workers per job; runners × workers = nproc
	jsPollInterval = 4 * time.Millisecond
	jsRate         = 20 // jobs per second on the 2-core reference box
	jsTable1Cases  = 4
	jsPushoutCases = 8
	jsSTAGates     = 500
	jsRequired     = "3ns"
)

var jobServiceWorkload = workload{
	name:  "job-service",
	ops:   func(seconds float64) int { return max(jsClients, int(math.Round(seconds*jsRate))) },
	setup: setupJobService,
}

// Job kinds, also the suffix of the per-kind latency metrics.
const (
	kindTable1  = "table1"
	kindPushout = "pushout"
	kindSTA     = "sta"
	kindHit     = "hit"
)

// jsBlock is one client's mix per 8 jobs: three table1, two pushout, one
// sta and two resubmissions. Fast jobs (hits, sta) are 3/8, so the median
// falls inside the solving jobs rather than on the fast/solving boundary.
var jsBlock = []string{kindTable1, kindTable1, kindTable1, kindPushout, kindPushout, kindSTA, kindHit, kindHit}

// jsOp is one client request.
type jsOp struct {
	kind string
	cfg  jobs.Config
	body []byte // the POST /jobs body
	ref  int    // for a hit: index of the resubmitted op in the client's list
}

type jobServiceInst struct {
	seed    int64
	reg     *telemetry.Registry
	libText string
	mgr     *jobs.Manager
	srv     *http.Server
	base    string
	client  *http.Client
	used    bool
	lists   [jsClients][]jsOp
	// Measurements of the last run, per op, for the layer metrics.
	recs [jsClients][]jsRecord
}

// jsRecord is what one request cycle observed.
type jsRecord struct {
	ok             bool
	latency        time.Duration
	polls          int
	submit, result time.Duration
	pollTime       time.Duration
	queued, ran    time.Duration
	cases          int
	sgdpAvgS       float64
	resultBody     []byte
	cacheHit       bool
}

func setupJobService(ctx context.Context, seed int64, n int, reg *telemetry.Registry) (instance, error) {
	var lib bytes.Buffer
	if err := netgen.SyntheticLibrary().Write(&lib); err != nil {
		return nil, err
	}
	s := &jobServiceInst{
		seed: seed, reg: reg, libText: lib.String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * jsClients}},
	}
	per := (n + jsClients - 1) / jsClients
	for c := range s.lists {
		ops, err := s.opList(c, per)
		if err != nil {
			return nil, fmt.Errorf("client %d requests: %w", c, err)
		}
		s.lists[c] = ops
	}
	if err := s.boot(); err != nil {
		return nil, err
	}
	// Warm-up: one job of each kind, with configs no timed op uses.
	warm := []jobs.Config{
		{Experiment: jobs.ExpTable1, Config: "II", Cases: 2, RangeS: 0.5e-9},
		{Experiment: jobs.ExpPushout, Config: "I", Cases: 2, MonteCarlo: true, Seed: -1},
	}
	sta, err := s.staConfig(-1, 200)
	if err != nil {
		return nil, err
	}
	warm = append(warm, sta)
	for _, cfg := range warm {
		op, err := newJSOp("", cfg)
		if err != nil {
			return nil, err
		}
		if rec := s.cycle(ctx, op, nil); !rec.ok {
			s.close()
			return nil, fmt.Errorf("warm-up %s job failed", cfg.Experiment)
		}
	}
	return s, nil
}

// boot starts a fresh manager and server on a loopback port.
func (s *jobServiceInst) boot() error {
	mgr, err := jobs.Open(jobs.Options{Runners: jsRunners, Workers: jsWorkers, Telemetry: s.reg})
	if err != nil {
		return err
	}
	srv, ln, err := (&httpserver.Server{Registry: s.reg, Jobs: mgr}).Start("127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return err
	}
	s.mgr, s.srv, s.base = mgr, srv, "http://"+ln.Addr().(*net.TCPAddr).String()
	return nil
}

func (s *jobServiceInst) close() {
	if s.srv != nil {
		s.srv.Close()
		s.mgr.Close()
		s.srv, s.mgr = nil, nil
	}
	s.client.CloseIdleConnections()
}

func newJSOp(kind string, cfg jobs.Config) (jsOp, error) {
	body, err := json.Marshal(map[string]any{"config": cfg})
	return jsOp{kind: kind, cfg: cfg, body: body}, err
}

// staConfig builds an STA job on a small seeded mesh.
func (s *jobServiceInst) staConfig(seed int64, gates int) (jobs.Config, error) {
	cfg := netgen.DefaultConfig(gates)
	cfg.Seed = seed
	cfg.Name = fmt.Sprintf("mesh_%d", seed)
	d, err := netgen.Generate(cfg)
	if err != nil {
		return jobs.Config{}, err
	}
	var text strings.Builder
	if err := netlist.Write(&text, d); err != nil {
		return jobs.Config{}, err
	}
	req := make(map[string]string, len(d.Outputs))
	for _, o := range d.Outputs {
		req[o] = jsRequired
	}
	return jobs.Config{Experiment: jobs.ExpSTA, Netlist: text.String(), Liberty: s.libText,
		Wire: "elmore", Require: req}, nil
}

// opList draws client c's first n requests from the seed. Every fresh
// config is distinct across clients and runs; a hit resubmits one of the
// same client's earlier jobs, which the closed loop has finished, so it is
// served from the content-addressed store.
func (s *jobServiceInst) opList(c, n int) ([]jsOp, error) {
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(c)))
	var ops []jsOp
	var fresh []int
	// Configurations I and II alternate within each solving kind, the two
	// clients out of phase, so every seed runs the same I/II mix.
	perKind := map[string]int{}
	for len(ops) < n {
		kinds := append([]string(nil), jsBlock...)
		rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		if len(ops) == 0 {
			// A resubmission needs an earlier job: start with the first
			// fresh kind of the block.
			for k, kind := range kinds {
				if kind != kindHit {
					kinds[0], kinds[k] = kinds[k], kinds[0]
					break
				}
			}
		}
		for _, kind := range kinds {
			if len(ops) == n {
				break
			}
			idx := int64(len(ops))
			uniq := (s.seed*jsClients+int64(c))*1_000_000 + idx
			config := []string{"I", "II"}[(perKind[kind]+c)%2]
			perKind[kind]++
			var cfg jobs.Config
			var err error
			switch kind {
			case kindTable1:
				cfg = jobs.Config{Experiment: jobs.ExpTable1, Config: config, Cases: jsTable1Cases,
					RangeS: 1e-9 * (0.8 + 0.4*rng.Float64())}
			case kindPushout:
				cfg = jobs.Config{Experiment: jobs.ExpPushout, Config: config, Cases: jsPushoutCases,
					MonteCarlo: true, Seed: uniq}
			case kindSTA:
				cfg, err = s.staConfig(uniq, jsSTAGates)
			case kindHit:
				ref := fresh[rng.Intn(len(fresh))]
				op := ops[ref]
				op.kind, op.ref = kindHit, ref
				ops = append(ops, op)
				continue
			}
			if err != nil {
				return nil, err
			}
			op, err := newJSOp(kind, cfg)
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, len(ops))
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// run sends every client's request list, built at set-up for n jobs.
func (s *jobServiceInst) run(ctx context.Context, n int, tr *trace.Tracer) runStats {
	var st runStats
	if s.used {
		// A repeated pass needs an empty store, or every job would hit.
		s.close()
		if err := s.boot(); err != nil {
			st.attempted += n
			st.fail("reboot: %v", err)
			return st
		}
	}
	s.used = true

	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range s.lists {
		s.recs[c] = make([]jsRecord, len(s.lists[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, op := range s.lists[c] {
				s.recs[c][i] = s.cycle(ctx, op, tr)
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(t0)

	for c, recs := range s.recs {
		for i, rec := range recs {
			st.attempted++
			op := s.lists[c][i]
			var problem string
			switch {
			case !rec.ok:
				problem = "request cycle failed"
			case op.kind == kindHit && !rec.cacheHit:
				problem = "resubmission was not a cache hit"
			case op.kind == kindHit && !bytes.Equal(rec.resultBody, recs[op.ref].resultBody):
				problem = fmt.Sprintf("resubmission result differs from job %d", op.ref)
			case op.kind == kindHit:
				problem = s.checkHitQuiescent(ctx, op, recs[op.ref].resultBody)
			}
			if problem != "" {
				st.fail("client %d job %d (%s): %s", c, i, op.kind, problem)
				continue
			}
			st.done(c*len(s.lists[0])+i, rec.latency, 1)
		}
	}
	return st
}

// checkHitQuiescent resubmits a hit's config once more, after the timed
// run with no other job in flight: a cache hit must leave the solver
// counters unchanged and return the stored result. It returns what went
// wrong, or "".
func (s *jobServiceInst) checkHitQuiescent(ctx context.Context, op jsOp, stored []byte) string {
	watched := []string{"spice.transients", "sta.gates_timed", "sweep.cases_completed"}
	before := make([]int64, len(watched))
	for k, name := range watched {
		before[k] = s.reg.Counter(name).Value()
	}
	rec := s.cycle(ctx, op, nil)
	for k, name := range watched {
		if v := s.reg.Counter(name).Value(); v != before[k] {
			return fmt.Sprintf("cache hit moved %s by %d", name, v-before[k])
		}
	}
	if !rec.ok || !rec.cacheHit || !bytes.Equal(rec.resultBody, stored) {
		return "quiescent resubmission did not return the stored result"
	}
	return ""
}

// cycle runs one request cycle: submit, poll at the fixed interval until
// terminal, fetch the result. Any non-2xx answer, a 429 included, fails it.
func (s *jobServiceInst) cycle(ctx context.Context, op jsOp, tr *trace.Tracer) jsRecord {
	var rec jsRecord
	var root *trace.Span
	if tr != nil {
		ctx, root = tr.Root(ctx, "bench.job", trace.NoCase, trace.String("kind", op.kind))
		defer root.End()
	}
	t0 := time.Now()

	var status jobs.Status
	t := time.Now()
	_, span := trace.Start(ctx, "http.submit")
	code, body, err := s.do(ctx, http.MethodPost, "/jobs", op.body)
	span.End()
	rec.submit = time.Since(t)
	if err != nil || code != http.StatusAccepted || json.Unmarshal(body, &status) != nil {
		return rec
	}
	for !status.State.Terminal() {
		time.Sleep(jsPollInterval)
		t = time.Now()
		_, span := trace.Start(ctx, "http.poll")
		code, body, err = s.do(ctx, http.MethodGet, "/jobs/"+status.ID, nil)
		span.End()
		rec.pollTime += time.Since(t)
		rec.polls++
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &status) != nil {
			return rec
		}
	}
	if status.State != jobs.StateDone {
		return rec
	}
	t = time.Now()
	_, span = trace.Start(ctx, "http.result")
	code, body, err = s.do(ctx, http.MethodGet, "/jobs/"+status.ID+"/result", nil)
	span.End()
	rec.result = time.Since(t)
	rec.latency = time.Since(t0)
	if err != nil || code != http.StatusOK {
		return rec
	}
	rec.resultBody = body
	rec.cacheHit = status.CacheHit
	rec.queued = status.Started.Sub(status.Created)
	rec.ran = status.Finished.Sub(status.Started)
	rec.cases = status.Total
	rec.ok = checkJobResult(op.cfg, body, &rec)
	return rec
}

// checkJobResult validates the shape of a job result against its config.
func checkJobResult(cfg jobs.Config, body []byte, rec *jsRecord) bool {
	var res jobs.Result
	if json.Unmarshal(body, &res) != nil || res.Experiment != cfg.Experiment {
		return false
	}
	switch cfg.Experiment {
	case jobs.ExpTable1:
		p := res.Table1
		if p == nil || len(p.Stats) != 6 {
			return false
		}
		for _, st := range p.Stats {
			if st.N+st.Failures != cfg.Cases-res.Excluded {
				return false
			}
			if st.Name == "SGDP" {
				rec.sgdpAvgS = st.AvgAbs
			}
		}
	case jobs.ExpPushout:
		if res.Pushout == nil || len(res.Pushout.Pushouts) != cfg.Cases {
			return false
		}
	case jobs.ExpSTA:
		if res.STA == nil || res.STA.WorstSlack == nil || math.IsNaN(res.STA.WorstSlack.Slack) {
			return false
		}
	}
	return true
}

// do sends one request and reads the whole answer.
func (s *jobServiceInst) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *jobServiceInst) layers(_ []trace.SpanRecord, d map[string]int64, st runStats) map[string]float64 {
	var jobsN, hits, polls, sweepCases int
	var submit, poll, result, queued, ran time.Duration
	var fresh int
	var sgdp []float64
	byKind := map[string][]float64{}
	for c, recs := range s.recs {
		for i, rec := range recs {
			if !rec.ok {
				continue
			}
			jobsN++
			submit += rec.submit
			result += rec.result
			poll += rec.pollTime
			polls += rec.polls
			kind := s.lists[c][i].kind
			byKind[kind] = append(byKind[kind], ms(rec.latency))
			if rec.cacheHit {
				hits++
				continue
			}
			fresh++
			queued += rec.queued
			if kind == kindTable1 || kind == kindPushout {
				ran += rec.ran
				sweepCases += rec.cases
			}
			if kind == kindTable1 {
				sgdp = append(sgdp, rec.sgdpAvgS)
			}
		}
	}
	v := spiceLayers(d, sweepCases)
	v["http.submit_ms"] = perOp(ms(submit), jobsN)
	v["http.poll_ms"] = perOp(ms(poll), polls)
	v["http.polls_per_job"] = perOp(float64(polls), jobsN)
	v["http.result_ms"] = perOp(ms(result), jobsN)
	v["jobs.queue_ms"] = perOp(ms(queued), fresh)
	v["jobs.run_ms_per_case"] = perOp(ms(ran), sweepCases)
	v["jobs.cache_hit_ratio"] = perOp(float64(hits), jobsN)
	for _, k := range []string{kindTable1, kindPushout, kindSTA, kindHit} {
		if len(byKind[k]) > 0 {
			v["jobs.latency_ms."+k] = median(byKind[k])
		}
	}
	v["eqwave.sgdp_err_avg_ps"] = mean(sgdp) * 1e12
	return v
}
