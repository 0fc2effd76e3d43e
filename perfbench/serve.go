package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/pacer"
	"analogyield/internal/process"
	"analogyield/internal/server"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
)

// serveSizes sets the serve workload's shape.
type serveSizes struct {
	// The set-up flow the models derive from. Its seed is fixed, as the
	// design workload's is: the benchmark seed generates the models'
	// perturbations and the traffic, and set-up stays the same work.
	ModelSeed                   int64
	ModelPop, ModelGen, ModelMC int
	Models, Tenants             int
	MaxModels                   int     // registry residency cap
	Zipf                        float64 // model popularity exponent (> 1)
	Pool                        int     // distinct pre-rendered query requests
	BatchFrac                   float64 // share of batch-8 bodies among query requests
	Batch                       int
	Conns                       int // at most nproc, so the generator cannot outnumber the cores
	// LoQPS and HiQPS are the open-loop query rates (a batch body counts
	// as Batch queries): about a quarter and a half of the ~20k q/s
	// closed-loop serve_max_qps measured on 2 vCPUs. At two thirds the
	// generator and server, sharing both cores, sit at the knee and the
	// high-rate median doubles from run to run.
	LoQPS, HiQPS float64
	// Phase shares of the measurement window: open loop at LoQPS, open
	// loop at HiQPS, then the closed loop.
	LoShare, HiShare float64
	Rounds           int
	// ProbeWindow is the measured window when a traced run of another
	// workload probes the serving layers.
	ProbeWindow time.Duration
	WarmUp      time.Duration
	// ControlEvery spaces each control-plane stream (model upload,
	// /metrics scrape, /healthz probe).
	ControlEvery time.Duration
}

func defaultServeSizes() serveSizes {
	return serveSizes{ModelSeed: 1, ModelPop: 24, ModelGen: 12, ModelMC: 30, Models: 16, Tenants: 4, MaxModels: 8,
		Zipf: 1.2, Pool: 4096, BatchFrac: 10.0 / 95, Batch: 8, Conns: min(2, runtime.NumCPU()),
		LoQPS: 4500, HiQPS: 9000, LoShare: 0.35, HiShare: 0.35, Rounds: 10, ProbeWindow: 4 * time.Second,
		WarmUp: 500 * time.Millisecond, ControlEvery: time.Second}
}

// shedHorizon is how far behind schedule an arrival may fall before the
// generator sheds it (and counts it failed) instead of sending it.
const shedHorizon = 250 * time.Millisecond

// poolReq is one pre-rendered query request with its expected response.
type poolReq struct {
	wire     []byte
	queries  int
	status   int
	body     []byte
	path, id string
	payload  []byte
	single   *api.QueryRequest
	batch    []api.QueryRequest
}

// ctlKind names the control-plane streams.
type ctlKind int

const (
	ctlUpload ctlKind = iota
	ctlMetrics
	ctlHealth
	numCtl
)

var ctlNames = [numCtl]string{"upload", "metrics", "healthz"}

// upload is one pre-rendered model upload with the version the server
// must answer with.
type upload struct {
	wire    []byte
	version string
}

// serveBench holds the running server and the generator's inputs.
type serveBench struct {
	sz      serveSizes
	srv     *server.Server
	st      *store.Disk
	dir     string
	pool    []poolReq
	uploads []upload
	conns   []*rawConn
	host    string
	tr      *tracer
	model   *core.Model // one served model, reinstalled by the replay

	mu       sync.Mutex
	failures []string
	failed   int
	attempts int
	next     int // next pool index, shared across phases
}

func (b *serveBench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// perturbModel derives one served model from the set-up flow's Pareto
// points: each model shifts and scales the front, its variation and its
// parameters by seeded factors, which keeps every table monotone.
func perturbModel(pts []core.ParetoPoint, rng *rand.Rand) []core.ParetoPoint {
	g, p := 1+0.04*(rng.Float64()-0.5), 1+0.04*(rng.Float64()-0.5)
	d0, d1 := 0.8+0.4*rng.Float64(), 0.8+0.4*rng.Float64()
	k := 0.9 + 0.2*rng.Float64()
	out := make([]core.ParetoPoint, len(pts))
	for i, pt := range pts {
		params := make([]float64, len(pt.Params))
		for j, v := range pt.Params {
			params[j] = v * k
		}
		out[i] = core.ParetoPoint{Params: params,
			Perf:     [2]float64{pt.Perf[0] * g, pt.Perf[1] * p},
			DeltaPct: [2]float64{pt.DeltaPct[0] * d0, pt.DeltaPct[1] * d1}}
	}
	return out
}

var (
	objNames   = []string{"gain_db", "pm_deg"}
	paramNames = core.NewOTAProblem().ParamNames()
	paramUnits = core.NewOTAProblem().ParamUnits()
)

// setupServe derives the served models from a flow's Pareto points,
// starts the server on a disk store, renders the request pool with its
// in-process reference responses, connects and warms up.
func setupServe(e *env, sz serveSizes, rng *rand.Rand, res *core.FlowResult) (*serveBench, error) {
	dir, err := os.MkdirTemp(e.out, "serve-store-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{sz: sz, dir: dir, st: store.OpenDisk(dir)}
	b.srv = server.New(server.Config{
		Addr:      "127.0.0.1:0",
		Store:     b.st,
		DataDir:   dir,
		MaxModels: sz.MaxModels,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	type served struct {
		tenant, name string
		info         *api.ModelInfo
	}
	var models []served
	for j := 0; j < sz.Models; j++ {
		m, err := core.BuildModel(perturbModel(res.Points, rng), objNames, paramNames, paramUnits, core.ModelOptions{})
		if err != nil {
			b.close()
			return nil, fmt.Errorf("model %d: %w", j, err)
		}
		b.model = m
		s := served{tenant: fmt.Sprintf("t%d", j%sz.Tenants), name: fmt.Sprintf("m%02d", j)}
		if _, err := b.srv.Registry().Install(s.tenant, s.name, m); err != nil {
			b.close()
			return nil, err
		}
		if s.info, err = b.srv.Registry().Info(s.tenant, s.name); err != nil {
			b.close()
			return nil, err
		}
		models = append(models, s)
	}
	if err := b.srv.Start(); err != nil {
		b.close()
		return nil, err
	}
	b.host = b.srv.Addr()

	// Query pool: Zipf model popularity, 85:10 single to batch-8 bodies,
	// specs anywhere in the model's domains (infeasible answers are
	// valid responses).
	zipf := rand.NewZipf(rng, sz.Zipf, 1, uint64(sz.Models-1))
	query := func(s served) api.QueryRequest {
		d0, d1 := s.info.Domain, s.info.Domain1
		return api.QueryRequest{
			TenantRef: api.TenantRef{Tenant: s.tenant, Model: s.name},
			Specs: [2]api.Spec{
				{Name: "gain_db", Sense: ">=", Bound: d0[0] + (0.05+0.9*rng.Float64())*(d0[1]-d0[0])},
				{Name: "pm_deg", Sense: ">=", Bound: d1[0] + 0.5*rng.Float64()*(d1[1]-d1[0])},
			},
		}
	}
	handler := b.srv.Handler()
	for i := 0; i < sz.Pool; i++ {
		s := models[zipf.Uint64()]
		pr := poolReq{path: "/v1/t/" + s.tenant + "/yield/query", id: fmt.Sprintf("pb-%d", i), queries: 1}
		var payload any
		if rng.Float64() < sz.BatchFrac {
			for k := 0; k < sz.Batch; k++ {
				pr.batch = append(pr.batch, query(s))
			}
			pr.queries = sz.Batch
			payload = api.BatchQueryRequest{Queries: pr.batch}
		} else {
			q := query(s)
			pr.single = &q
			payload = q
		}
		if pr.payload, err = json.Marshal(payload); err != nil {
			b.close()
			return nil, err
		}
		pr.wire = renderRequest("POST", pr.path, b.host, pr.id, pr.payload)
		pr.status, pr.body = serveInMemory(handler, "POST", pr.path, pr.id, pr.payload)
		b.pool = append(b.pool, pr)
	}

	// Uploads: perturbed variants under rotating names, one per tenant.
	for k := 0; k < 128; k++ {
		pts := perturbModel(res.Points, rng)
		m, err := core.BuildModel(pts, objNames, paramNames, paramUnits, core.ModelOptions{})
		if err != nil {
			b.close()
			return nil, err
		}
		payload, err := core.EncodeModel(m)
		if err != nil {
			b.close()
			return nil, err
		}
		req := api.InstallModelRequest{Name: fmt.Sprintf("up%d", k%4), ObjectiveNames: objNames,
			ParamNames: paramNames, ParamUnits: paramUnits}
		for _, p := range pts {
			req.Points = append(req.Points, api.ModelPoint{Perf: p.Perf, DeltaPct: p.DeltaPct, Params: p.Params})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.close()
			return nil, err
		}
		b.uploads = append(b.uploads, upload{
			wire:    renderRequest("POST", fmt.Sprintf("/v1/t/t%d/models", k%sz.Tenants), b.host, fmt.Sprintf("up-%d", k), body),
			version: store.Version(payload),
		})
	}

	for w := 0; w < sz.Conns; w++ {
		c, err := dialRaw(b.host)
		if err != nil {
			b.close()
			return nil, err
		}
		b.conns = append(b.conns, c)
	}
	b.closedLoop(sz.WarmUp, nil)
	return b, nil
}

// serveInMemory runs one request through the handler without a socket.
func serveInMemory(h http.Handler, method, path, id string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (b *serveBench) close() {
	for _, c := range b.conns {
		c.close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.srv.Shutdown(ctx) // the run is over; a slow drain only delays exit
		cancel()
	}
	os.RemoveAll(b.dir)
}

// phase is what one load phase measured.
type phase struct {
	lat     []float64 // query request latency from scheduled send, ms
	lag     []float64 // generator send time − scheduled time, µs
	ctlLat  [numCtl][]float64
	scrapeB []float64
	queries int64
	shed    int
	elapsed time.Duration
}

// control hands out the control-plane requests as they fall due.
type control struct {
	mu   sync.Mutex
	due  [numCtl]time.Time
	seq  [numCtl]int
	each time.Duration
}

func newControl(start time.Time, each time.Duration) *control {
	c := &control{each: each}
	for k := range c.due {
		c.due[k] = start.Add(time.Duration(k+1) * each / time.Duration(numCtl+1))
	}
	return c
}

// claim returns a due control request, if any.
func (c *control) claim(now time.Time) (ctlKind, time.Time, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.due {
		if !now.Before(c.due[k]) {
			at, seq := c.due[k], c.seq[k]
			c.due[k] = c.due[k].Add(c.each)
			c.seq[k]++
			return ctlKind(k), at, seq, true
		}
	}
	return 0, time.Time{}, 0, false
}

// sendControl sends one control request and checks its response.
func (b *serveBench) sendControl(c *rawConn, k ctlKind, at time.Time, seq int, ph *phase) {
	var wire []byte
	switch k {
	case ctlUpload:
		wire = b.uploads[seq%len(b.uploads)].wire
	case ctlMetrics:
		wire = renderRequest("GET", "/metrics", b.host, fmt.Sprintf("metrics-%d", seq), nil)
	case ctlHealth:
		wire = renderRequest("GET", "/healthz", b.host, fmt.Sprintf("healthz-%d", seq), nil)
	}
	sp := b.tr.begin("wire."+ctlNames[k], 0, int64(-1-seq))
	status, body, err := c.do(wire)
	sp.end()
	lat := time.Since(at)
	b.mu.Lock()
	b.attempts++
	b.mu.Unlock()
	switch {
	case err != nil:
		b.fail("%s: %v", ctlNames[k], err)
		return
	case k == ctlUpload:
		var info api.ModelInfo
		want := b.uploads[seq%len(b.uploads)].version
		if status != http.StatusCreated || json.Unmarshal(body, &info) != nil || info.Version != want {
			b.fail("upload %d: status %d, version %q, want 201 and %q", seq, status, info.Version, want)
			return
		}
	case k == ctlMetrics:
		if status != http.StatusOK || !bytes.Contains(body, []byte("ayd_http_request_duration_seconds")) {
			b.fail("metrics scrape: status %d, %d bytes", status, len(body))
			return
		}
		ph.scrapeB = append(ph.scrapeB, float64(len(body)))
	case k == ctlHealth:
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"status":"ok"`)) {
			b.fail("healthz: status %d: %s", status, body)
			return
		}
	}
	ph.ctlLat[k] = append(ph.ctlLat[k], millis(lat))
}

// sendQuery sends one pool request and compares the response with the
// in-process reference.
func (b *serveBench) sendQuery(c *rawConn, i int) bool {
	pr := &b.pool[i]
	status, body, err := c.do(pr.wire)
	switch {
	case err != nil:
		b.fail("query %s: %v", pr.id, err)
		return false
	case status != pr.status || !bytes.Equal(body, pr.body):
		b.fail("query %s: status %d body %q, reference %d %q", pr.id, status, body, pr.status, pr.body)
		return false
	}
	return true
}

// claimPool hands out the next count pool indices.
func (b *serveBench) claimPool(count int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := b.next
	b.next = (b.next + count) % len(b.pool)
	return i
}

// openLoop offers query requests at a fixed query rate for dur. Worker
// w of the connections owns arrivals w, w+C, w+2C, … of one global
// schedule, paced by internal/pacer; latency runs from the scheduled
// send time, so a stall is charged to every request it delays.
func (b *serveBench) openLoop(qps float64, dur time.Duration, ph *phase) {
	meanQ := 1 + b.sz.BatchFrac*float64(b.sz.Batch-1)
	interval := time.Duration(float64(time.Second) * meanQ / qps)
	base := b.claimPool(0)
	conns := len(b.conns)
	start := time.Now().Add(time.Millisecond)
	ctl := newControl(start, b.sz.ControlEvery)
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wt := pacer.New()
			defer wt.Close() //nolint:errcheck // the waiter falls back to time.Sleep either way
			p := &parts[w]
			c := b.conns[w]
			for i := w; ; i += conns {
				sched := start.Add(time.Duration(i) * interval)
				if sched.Sub(start) >= dur {
					return
				}
				wt.SleepUntil(sched)
				now := time.Now()
				if k, at, seq, ok := ctl.claim(now); ok {
					b.sendControl(c, k, at, seq, p)
					now = time.Now()
				}
				if now.Sub(sched) > shedHorizon {
					p.shed++
					b.fail("arrival shed %v behind schedule", now.Sub(sched))
					b.mu.Lock()
					b.attempts++
					b.mu.Unlock()
					continue
				}
				idx := (base + i) % len(b.pool)
				sp := b.tr.begin("wire.query", 0, int64(i+1))
				p.lag = append(p.lag, micros(now.Sub(sched)))
				ok := b.sendQuery(c, idx)
				p.lat = append(p.lat, millis(time.Since(sched)))
				sp.end()
				b.mu.Lock()
				b.attempts++
				b.mu.Unlock()
				if ok {
					p.queries += int64(b.pool[idx].queries)
				}
			}
		}(w)
	}
	wg.Wait()
	ph.elapsed = dur
	merge(ph, parts)
	b.claimPool(int(float64(dur) / float64(interval)))
}

// closedLoop keeps every connection busy for dur: the next request goes
// as soon as the previous answer arrives.
func (b *serveBench) closedLoop(dur time.Duration, ph *phase) {
	conns := len(b.conns)
	start := time.Now()
	ctl := newControl(start, b.sz.ControlEvery)
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			c := b.conns[w]
			for n := 0; ; n++ {
				now := time.Now()
				if now.Sub(start) >= dur {
					return
				}
				if k, at, seq, ok := ctl.claim(now); ok {
					b.sendControl(c, k, at, seq, p)
				}
				idx := b.claimPool(1)
				sp := b.tr.begin("wire.query", 0, int64(idx+1))
				t0 := time.Now()
				ok := b.sendQuery(c, idx)
				p.lat = append(p.lat, millis(time.Since(t0)))
				sp.end()
				b.mu.Lock()
				b.attempts++
				b.mu.Unlock()
				if ok {
					p.queries += int64(b.pool[idx].queries)
				}
			}
		}(w)
	}
	wg.Wait()
	if ph != nil {
		ph.elapsed = time.Since(start)
		merge(ph, parts)
	}
}

func merge(ph *phase, parts []phase) {
	for _, p := range parts {
		ph.lat = append(ph.lat, p.lat...)
		ph.lag = append(ph.lag, p.lag...)
		for k := range p.ctlLat {
			ph.ctlLat[k] = append(ph.ctlLat[k], p.ctlLat[k]...)
		}
		ph.scrapeB = append(ph.scrapeB, p.scrapeB...)
		ph.queries += p.queries
		ph.shed += p.shed
		ph.elapsed += p.elapsed
	}
}

// serveRun is the measured phases of one pass: Rounds rounds of (open
// loop at LoQPS, open loop at HiQPS, closed loop), interleaved so that a
// stretch of interference from outside hits one round of every phase
// rather than all of one phase. Each latency is the median over rounds;
// the closed-loop rate is over all rounds together, because the rate of
// one round moves by a third with where its connections are scheduled.
type serveRun struct{ lo, hi, max []phase }

func (b *serveBench) runPhases(window time.Duration) *serveRun {
	r := &serveRun{}
	round := window / time.Duration(b.sz.Rounds)
	for i := 0; i < b.sz.Rounds; i++ {
		// Fresh connections each round: which thread serves a
		// connection persists for its lifetime and moves throughput by
		// tens of percent on 2 vCPUs, so each round draws it anew.
		for _, c := range b.conns {
			if err := c.redial(); err != nil {
				b.fail("redial: %v", err)
			}
		}
		var lo, hi, mx phase
		b.openLoop(b.sz.LoQPS, time.Duration(float64(round)*b.sz.LoShare), &lo)
		b.openLoop(b.sz.HiQPS, time.Duration(float64(round)*b.sz.HiShare), &hi)
		b.closedLoop(time.Duration(float64(round)*(1-b.sz.LoShare-b.sz.HiShare)), &mx)
		r.lo, r.hi, r.max = append(r.lo, lo), append(r.hi, hi), append(r.max, mx)
	}
	return r
}

// perRound applies f to every round's phase and returns the median.
func perRound(ps []phase, f func(*phase) float64) float64 {
	var xs []float64
	for i := range ps {
		xs = append(xs, f(&ps[i]))
	}
	return median(xs)
}

func p50Of(p *phase) float64 { return median(p.lat) }
func p99Of(p *phase) float64 { return p99(p.lat) }
func qpsOf(p *phase) float64 { return float64(p.queries) / p.elapsed.Seconds() }

func (r *serveRun) e2e() map[string]float64 {
	return map[string]float64{
		"serve_lo_p50_ms": perRound(r.lo, p50Of), "serve_lo_p99_ms": perRound(r.lo, p99Of),
		"serve_hi_p50_ms": perRound(r.hi, p50Of), "serve_hi_p99_ms": perRound(r.hi, p99Of),
		"serve_max_qps": qpsOf(all(r.max)),
	}
}

var serveUnits = map[string]string{"serve_lo_p50_ms": "ms", "serve_lo_p99_ms": "ms",
	"serve_hi_p50_ms": "ms", "serve_hi_p99_ms": "ms", "serve_max_qps": "1/s"}

// all concatenates the rounds of one phase; its elapsed time is their sum.
func all(ps []phase) *phase {
	var out phase
	merge(&out, ps)
	return &out
}

func (r *serveRun) samples() map[string]int {
	lo, hi, mx := all(r.lo), all(r.hi), all(r.max)
	return map[string]int{"serve_lo_p50_ms": len(lo.lat), "serve_lo_p99_ms": len(lo.lat),
		"serve_hi_p50_ms": len(hi.lat), "serve_hi_p99_ms": len(hi.lat), "serve_max_qps": int(mx.queries)}
}

func runServeWorkload(e *env) error {
	rep, sz := e.rep, e.sz.serve
	proc := process.C35()

	// Set-up, repeated: the small flow the models derive from, then the
	// server, pool and connections. Every repeat draws the same inputs.
	var b *serveBench
	var res *core.FlowResult
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if res, err = buildModel(sz.ModelSeed, sz.ModelPop, sz.ModelGen, sz.ModelMC, 2, proc); err != nil {
			return err
		}
		if b, err = setupServe(e, sz, rand.New(rand.NewSource(e.seed)), res); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	mem := startMemDelta()
	c0, i0 := b.srv.Registry().QueryStats()
	run := b.runPhases(e.seconds)
	c1, i1 := b.srv.Registry().QueryStats()
	e2e, n := run.e2e(), run.samples()
	b.account(rep)
	if !e.trace {
		for _, k := range []string{"serve_lo_p99_ms", "serve_hi_p50_ms", "serve_hi_p99_ms"} {
			rep.note("%s %.6g %s n=%d (reported as serve.%s in the traced run)", k, e2e[k], serveUnits[k], n[k], k[len("serve_"):])
		}
		var qps []string
		for i := range run.max {
			qps = append(qps, fmt.Sprintf("%.0f", qpsOf(&run.max[i])))
		}
		rep.note("closed-loop q/s by round: %s", strings.Join(qps, " "))
		finishE2E(rep, setups, e2e["serve_lo_p50_ms"], n["serve_lo_p50_ms"], e2e["serve_max_qps"], n["serve_max_qps"])
		return nil
	}

	// Traced pass: the phases again at half length with a span around
	// every wire request, then the replays.
	b.tr = newTracer()
	traced := b.runPhases(e.seconds / 2)
	mem.report(rep)
	b.account(rep)
	tracedE2E := traced.e2e()
	overhead(rep, tracedE2E["serve_lo_p50_ms"], e2e["serve_lo_p50_ms"], tracedE2E["serve_max_qps"], e2e["serve_max_qps"], 1)
	if err := b.layers(rep, run, c1-c0, i1-i0); err != nil {
		return err
	}

	// The layers the service does not load: the flow stages and circuit
	// layers, by rerunning the set-up flow traced, and the design layers,
	// on the model it built.
	sub := newReport()
	traceFlow(sub, b.tr, flowConfig(nil, proc, sz.ModelPop, sz.ModelGen, sz.ModelMC, sz.ModelSeed, 2, nil),
		e.seed, checkSameModel(res))
	rep.adopt(sub)
	if err := probeDesign(e, b.tr, res.Model, proc, "serve"); err != nil {
		return err
	}
	return b.tr.write(e.out, "serve", e.seed)
}

// layers reports the serving layers from a measured pass: the tail and
// high-rate latencies (too spread between runs on a shared 2-vCPU host
// to carry a regression bound), the generator's lag and shed arrivals,
// the compiled-query share, the control-plane requests, and the
// in-memory replays.
func (b *serveBench) layers(rep *report, run *serveRun, compiled, interpreted int64) error {
	e2e, n := run.e2e(), run.samples()
	for _, k := range []string{"serve_lo_p99_ms", "serve_hi_p50_ms", "serve_hi_p99_ms"} {
		rep.set("serve."+k[len("serve_"):], e2e[k], serveUnits[k], n[k])
	}
	lo, hi, mx := all(run.lo), all(run.hi), all(run.max)
	rep.set("loadgen.lag_p99_us", p99(append(append([]float64(nil), lo.lag...), hi.lag...)), "us",
		len(lo.lag)+len(hi.lag))
	rep.set("loadgen.shed", float64(lo.shed+hi.shed), "count", 1)
	rep.set("server.compiled_frac", ratio(int(compiled), int(compiled+interpreted)), "ratio", int(compiled+interpreted))
	var install, scrape, scrapeB []float64
	for _, ph := range []*phase{lo, hi, mx} {
		install = append(install, ph.ctlLat[ctlUpload]...)
		scrape = append(scrape, ph.ctlLat[ctlMetrics]...)
		scrapeB = append(scrapeB, ph.scrapeB...)
	}
	rep.set("server.install_ms", median(install), "ms", len(install))
	rep.set("telemetry.scrape_ms", median(scrape), "ms", len(scrape))
	rep.set("telemetry.scrape_bytes", median(scrapeB), "bytes", len(scrapeB))
	return b.replay(rep, e2e["serve_lo_p50_ms"])
}

// account moves the generator's outcome counts into the report.
func (b *serveBench) account(rep *report) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep.Attempted += b.attempts
	rep.Failed += b.failed
	if b.failed > 0 {
		rep.Correct = false
	}
	for _, f := range b.failures {
		rep.note("FAIL: %s", f)
	}
	b.attempts, b.failed, b.failures = 0, 0, nil
}

// replay times the server's layers in memory on the run's own request
// pool: the registry query paths, the full handler chain, a store
// reload with recompilation, and installs through registry and store.
func (b *serveBench) replay(rep *report, loP50ms float64) error {
	reg := b.srv.Registry()
	ctx := context.Background()
	handler := b.srv.Handler()
	var single, batch, handle []float64
	for rep2 := 0; rep2 < 3; rep2++ {
		for i := range b.pool {
			pr := &b.pool[i]
			if pr.single != nil {
				sp := b.tr.begin("server.query", 0, 0)
				t := time.Now()
				_, _ = reg.Query(ctx, *pr.single)
				single = append(single, micros(time.Since(t)))
				sp.end()
				sp = b.tr.begin("server.handler", 0, 0)
				t = time.Now()
				serveInMemory(handler, "POST", pr.path, pr.id, pr.payload)
				handle = append(handle, micros(time.Since(t)))
				sp.end()
			} else {
				sp := b.tr.begin("server.query_batch", 0, 0)
				t := time.Now()
				_ = reg.QueryBatch(ctx, pr.batch)
				batch = append(batch, micros(time.Since(t)))
				sp.end()
			}
		}
	}
	q, h := median(single), median(handle)
	rep.set("server.query_us", q, "us", len(single))
	rep.set("server.query_batch_us", median(batch), "us", len(batch))
	rep.set("server.handler_us", h, "us", len(handle))
	rep.set("httpx.self_us", h-q, "us", len(handle))
	rep.set("wire.self_us", loP50ms*1000-h, "us", 1)

	// Store reload + compile: evict a model, then query it.
	var recompile []float64
	for i := 0; len(recompile) < 32 && i < len(b.pool); i++ {
		pr := &b.pool[i]
		if pr.single == nil {
			continue
		}
		reg.Evict(pr.single.Tenant, pr.single.Model)
		sp := b.tr.begin("server.recompile", 0, 0)
		t := time.Now()
		_, _ = reg.Query(ctx, *pr.single)
		recompile = append(recompile, millis(time.Since(t)))
		sp.end()
	}
	rep.set("server.recompile_ms", median(recompile), "ms", len(recompile))

	// Installs: the registry path (encode, store put, compile, publish)
	// and the store alone.
	m := b.model
	payload, err := core.EncodeModel(m)
	if err != nil {
		return err
	}
	var regInst, put, get []float64
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("replay%d", i%4)
		sp := b.tr.begin("server.registry_install", 0, 0)
		t := time.Now()
		if _, err := reg.Install("replay", name, m); err != nil {
			return err
		}
		regInst = append(regInst, millis(time.Since(t)))
		sp.end()
		sp = b.tr.begin("store.put", 0, 0)
		t = time.Now()
		if _, err := b.st.Put("replaystore", store.KindModel, name, payload); err != nil {
			return err
		}
		put = append(put, millis(time.Since(t)))
		sp.end()
		sp = b.tr.begin("store.get", 0, 0)
		t = time.Now()
		if _, _, err := b.st.Get(store.Key{Tenant: "replaystore", Kind: store.KindModel, Name: name}); err != nil {
			return err
		}
		get = append(get, micros(time.Since(t)))
		sp.end()
	}
	rep.set("server.registry_install_ms", median(regInst), "ms", len(regInst))
	rep.set("store.put_ms", median(put), "ms", len(put))
	rep.set("store.get_us", median(get), "us", len(get))
	return nil
}
