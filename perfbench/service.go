package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"loas/internal/obs"
	"loas/internal/serve"
	"loas/internal/sizing"
)

// serviceSetupReps is how many times the service workload starts the
// daemon; the first serviceSetupReps-1 are stopped again.
const serviceSetupReps = 15

// requestTimeout bounds one request; a request that runs out counts as
// failed.
const requestTimeout = 120 * time.Second

// daemon is one loasd process with its ledger in a directory of its own.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	ledger string
	done   chan struct{} // closed once stdout is drained
}

// startDaemon launches loasd on a free loopback port and returns once it
// answers /healthz.
func startDaemon(bin, dir string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("service: no loasd binary given (--loasd)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{ledger: filepath.Join(dir, "ledger.jsonl"), done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-ledger", d.ledger, "-ledger-mb", "1024", "-pprof")
	d.cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even one that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("service: start loasd: %w", err)
	}
	urls := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) > 3 && f[0] == "loasd" && f[1] == "listening" {
				urls <- f[3]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case d.url = <-urls:
	case <-d.done:
		d.cmd.Wait()
		return nil, fmt.Errorf("service: loasd exited before listening")
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("service: loasd did not start listening within 60 s")
	}
	resp, err := http.Get(d.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("service: loasd health check: %w", err)
	}
	return d, nil
}

// stop shuts the daemon down with SIGTERM, as an operator would, and
// waits for it to exit; after 60 s it is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("service: loasd did not exit within 60 s of SIGTERM")
	}
	return d.cmd.Wait()
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// totalAllocBytes reads the daemon's cumulative heap allocation from
// the runtime.MemStats footer of its heap profile.
func (d *daemon) totalAllocBytes() (float64, error) {
	body, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("service: no TotalAlloc in the heap profile")
}

// serviceSetup starts the daemon serviceSetupReps times in fresh
// directories under base, keeps the last one running and records the
// median CPU time a daemon spends until it answers /healthz as setup_s.
func serviceSetup(b *bench, base string) (*daemon, error) {
	var setups, walls []float64
	var d *daemon
	for i := 0; i < serviceSetupReps; i++ {
		t0 := time.Now()
		var err error
		d, err = startDaemon(b.cfg.loasd, filepath.Join(base, fmt.Sprintf("daemon%d", i)))
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpu, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			d.kill()
			return nil, err
		}
		setups = append(setups, cpu)
		if i < serviceSetupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	b.set("setup_s", median(setups))
	b.named("setup_s", median(setups), "s", len(setups), "median daemon CPU time to healthy")
	b.named("setup_wall_s", median(walls), "s", len(walls), "median wall time to healthy")
	return d, nil
}

// combo is one kind of cold synthesis the stream issues.
type combo struct {
	topology, layout string
	refine           bool
}

// combos are the cold syntheses of the stream: every topology on both
// layout backends, plus refinement on the two cheaper topologies.
var combos = []combo{
	{"folded-cascode", "", false},
	{"folded-cascode", "rows", false},
	{"two-stage", "", false},
	{"two-stage", "rows", false},
	{"five-t", "", false},
	{"five-t", "rows", false},
	{"five-t", "", true},
	{"two-stage", "rows", true},
}

// gbwSteps spec points around each topology's default spec: the
// default GBW scaled by 0.970, 0.972, ... 1.000. Every combo has more
// points than a run issues, so cold syntheses keep arriving until the
// run ends. All run at Table-1 case 4, the full methodology. Every run
// walks the points in the same order, so runs of any seed synthesize
// the same designs; the seed orders the combos and picks the repeats.
const gbwSteps = 16

func gbwFactor(i int) float64 { return 0.97 + 0.002*float64(i) }

// The run is a sequence of cycles, each a cold phase then a hit phase.
// In the cold phase every client sends the same new request: one runs
// the synthesis, the others join it (dedup). In the hit phase the
// clients share hitPhase requests: in every hitBlock of them one batch
// over completed requests, one /v1/runs read, and repeats of completed
// requests (cache hits).
// Cold syntheses therefore never overlap each other or cache hits, so
// the daemon's CPU time in a phase belongs to that phase's requests
// alone: hit cost is a property of the serving path, cold cost one of
// the engine.
const (
	hitPhase = 38
	hitBlock = 19
	posBatch = 5
	posRuns  = 11
	// batchItems is the number of completed requests one batch names.
	batchItems = 4
)

// svcRequest is one generated request. keys hold the synthesis request
// bodies it carries, the unit the result cache keys on.
type svcRequest struct {
	kind string // synthesize | batch | runs
	path string
	body []byte
	keys []string // synthesize: its body; batch: each item's body
}

func synthRequest(body []byte) svcRequest {
	return svcRequest{kind: "synthesize", path: "/v1/synthesize", body: body, keys: []string{string(body)}}
}

// stream generates the seeded request sequence.
type stream struct {
	rng   *rand.Rand
	nNew  int
	order []int    // seeded order of the combos
	done  [][]byte // synthesis requests that have completed
}

func newStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{rng: rng, order: rng.Perm(len(combos))}
}

// newRequest is the next new synthesis request and its combo: combos in
// seeded order, each walking its GBW points.
func (s *stream) newRequest() ([]byte, int, error) {
	k := s.nNew
	s.nNew++
	ci := s.order[k%len(s.order)]
	c := combos[ci]
	plan, err := sizing.Lookup(c.topology)
	if err != nil {
		return nil, 0, err
	}
	spec := plan.DefaultSpec()
	spec.GBW *= gbwFactor((k / len(s.order)) % gbwSteps)
	req := serve.SynthesizeRequest{Topology: c.topology, Layout: c.layout, Case: 4, Spec: &spec}
	if c.refine {
		req.Refine, req.RefineMaxRounds = true, 2
	}
	body, err := json.Marshal(req)
	return body, ci, err
}

// hitRequests is the next hit phase.
func (s *stream) hitRequests() ([]svcRequest, error) {
	reqs := make([]svcRequest, 0, hitPhase)
	for i := 0; i < hitPhase; i++ {
		switch i % hitBlock {
		case posBatch:
			var items []json.RawMessage
			var keys []string
			for j := 0; j < batchItems; j++ {
				body := s.done[s.rng.Intn(len(s.done))]
				items = append(items, body)
				keys = append(keys, string(body))
			}
			body, err := json.Marshal(map[string]any{"items": items})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, svcRequest{kind: "batch", path: "/v1/batch", body: body, keys: keys})
		case posRuns:
			reqs = append(reqs, svcRequest{kind: "runs", path: "/v1/runs?limit=20"})
		default:
			reqs = append(reqs, synthRequest(s.done[s.rng.Intn(len(s.done))]))
		}
	}
	return reqs, nil
}

// reply is one response body the output check compares: a synthesis
// body under its request key, with how the daemon served it.
type reply struct {
	key     string
	cache   string // miss | hit | dedup
	raw     [32]byte
	compact [32]byte
	inBatch bool
}

func digests(body []byte) (raw, compact [32]byte, err error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return raw, compact, err
	}
	return sha256.Sum256(body), sha256.Sum256(buf.Bytes()), nil
}

// svcRun is what one drive measured.
type svcRun struct {
	mu       sync.Mutex
	lat      map[string][]float64 // wall latency by class: hit, cold, batch, runs
	replies  []reply
	requests int
	failures []string
	wall     float64
	// coldCPU and coldAlloc hold the daemon's CPU seconds and heap bytes
	// per cold phase, by combo; hitCPU the daemon's CPU seconds over all
	// hit phases, which served hitReqs requests.
	coldCPU, coldAlloc map[int][]float64
	hitCPU             float64
	hitReqs            int
}

func (r *svcRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// comboMean is the mean over combos of each combo's median: the cost of
// one cold synthesis with every combo weighted alike, however many of
// each the run reached.
func comboMean(by map[int][]float64) float64 {
	if len(by) == 0 {
		return 0
	}
	t := 0.0
	for _, xs := range by {
		t += median(xs)
	}
	return t / float64(len(by))
}

// phase sends reqs over nproc closed-loop clients and returns once all
// have been answered. With a recorder, each request is a span under a
// phase span, all under op.
func phase(client *http.Client, dm *daemon, name string, reqs []svcRequest, run *svcRun, rec *recorder, op int) {
	clients := runtime.NumCPU()
	var parent int
	if rec != nil {
		parent = rec.start("phase."+name, 0, op)
		defer rec.end(parent)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if rec != nil {
					id := rec.start("client."+reqs[i].kind, parent, op)
					send(client, dm, reqs[i], run)
					rec.end(id)
				} else {
					send(client, dm, reqs[i], run)
				}
			}
		}()
	}
	wg.Wait()
}

// settle waits until the daemon has stopped using CPU — garbage
// collection a phase left behind belongs to that phase — and returns its
// CPU time. It gives up waiting after 200 ms.
func settle(pid int) (float64, error) {
	prev, err := cpuSeconds(pid)
	if err != nil {
		return 0, err
	}
	for wait := 0; wait < 100; wait++ {
		time.Sleep(2 * time.Millisecond)
		now, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		if now-prev < 50e-6 {
			return now, nil
		}
		prev = now
	}
	return prev, nil
}

// drive runs cycles of a cold and a hit phase until d has passed.
func drive(b *bench, dm *daemon, d time.Duration, rec *recorder) (*svcRun, error) {
	clients := runtime.NumCPU()
	st := newStream(b.cfg.seed)
	client := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	defer client.CloseIdleConnections()
	run := &svcRun{lat: map[string][]float64{}, coldCPU: map[int][]float64{}, coldAlloc: map[int][]float64{}}
	pid := dm.cmd.Process.Pid
	start := time.Now()
	deadline := start.Add(d)
	for cycle := 1; cycle == 1 || time.Now().Before(deadline); cycle++ {
		body, ci, err := st.newRequest()
		if err != nil {
			return nil, err
		}
		cold := make([]svcRequest, clients)
		for i := range cold {
			cold[i] = synthRequest(body)
		}
		a0, err := dm.totalAllocBytes()
		if err != nil {
			return nil, err
		}
		c0, err := cpuSeconds(pid)
		if err != nil {
			return nil, err
		}
		failed := len(run.failures)
		phase(client, dm, "cold", cold, run, rec, cycle)
		c1, err := settle(pid)
		if err != nil {
			return nil, err
		}
		a1, err := dm.totalAllocBytes()
		if err != nil {
			return nil, err
		}
		run.coldCPU[ci] = append(run.coldCPU[ci], c1-c0)
		run.coldAlloc[ci] = append(run.coldAlloc[ci], a1-a0)
		if len(run.failures) == failed {
			st.done = append(st.done, body)
		}
		if len(st.done) == 0 {
			continue
		}
		hits, err := st.hitRequests()
		if err != nil {
			return nil, err
		}
		h0, err := cpuSeconds(pid)
		if err != nil {
			return nil, err
		}
		phase(client, dm, "hit", hits, run, rec, cycle)
		h1, err := settle(pid)
		if err != nil {
			return nil, err
		}
		run.hitCPU += h1 - h0
		run.hitReqs += len(hits)
	}
	run.wall = time.Since(start).Seconds()
	if b.cfg.corruptExpected && len(run.replies) > 0 {
		run.replies[0].raw[0] ^= 0xff
		run.replies[0].compact[0] ^= 0xff
	}
	checkReplies(run)
	for _, f := range run.failures {
		b.notef("check failed: %s", f)
	}
	// Each failure is charged to one request; a run cannot fail more
	// requests than it sent.
	for i := 0; i < run.requests; i++ {
		b.op(i < len(run.failures))
	}
	return run, nil
}

// send sends one request and records its latency class, and the
// synthesis bodies it returned for the output check.
func send(client *http.Client, dm *daemon, req svcRequest, run *svcRun) {
	method := http.MethodGet
	var rd io.Reader
	if req.body != nil {
		method, rd = http.MethodPost, bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequest(method, dm.url+req.path, rd)
	if err != nil {
		run.fail("%s: %v", req.path, err)
		return
	}
	t0 := time.Now()
	resp, err := client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0).Seconds()
	run.mu.Lock()
	run.requests++
	run.mu.Unlock()
	if err != nil {
		run.fail("%s: %v", req.path, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		run.fail("%s: status %s: %.200s", req.path, resp.Status, body)
		return
	}
	class := req.kind
	var replies []reply
	switch req.kind {
	case "synthesize":
		cache := resp.Header.Get("X-Loas-Cache")
		class = "hit"
		if cache == "miss" {
			class = "cold"
		}
		raw, compact, err := digests(body)
		if err != nil {
			run.fail("%s: %v", req.path, err)
			return
		}
		replies = append(replies, reply{key: req.keys[0], cache: cache, raw: raw, compact: compact})
	case "batch":
		var rep serve.BatchReport
		if err := json.Unmarshal(body, &rep); err != nil || len(rep.Results) != len(req.keys) {
			run.fail("batch: malformed report (%v)", err)
			return
		}
		for i, item := range rep.Results {
			raw, compact, err := digests(item.Summary)
			if item.Error != "" || err != nil {
				run.fail("batch item %d: %s %v", i, item.Error, err)
				return
			}
			replies = append(replies, reply{key: req.keys[i], cache: item.Cache, raw: raw, compact: compact, inBatch: true})
		}
	case "runs":
		var rep struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(body, &rep); err != nil || len(rep.Runs) == 0 {
			run.fail("runs: malformed report (%v)", err)
			return
		}
	}
	run.mu.Lock()
	run.lat[class] = append(run.lat[class], lat)
	run.replies = append(run.replies, replies...)
	run.mu.Unlock()
}

// checkReplies checks that every cache hit or dedup reply is the cold
// reply for the same request: byte-identical (SHA-256) for /v1/synthesize
// bodies, identical after JSON compaction for batch items, which the
// batch report re-indents.
func checkReplies(run *svcRun) {
	cold := map[string]reply{}
	for _, r := range run.replies {
		if _, ok := cold[r.key]; !ok && r.cache == "miss" {
			cold[r.key] = r
		}
	}
	for _, r := range run.replies {
		if r.cache == "miss" {
			continue
		}
		ref, ok := cold[r.key]
		switch {
		case !ok:
			run.failures = append(run.failures, fmt.Sprintf("%s reply without a cold reply: %.80s", r.cache, r.key))
		case !r.inBatch && !ref.inBatch && r.raw != ref.raw,
			r.compact != ref.compact:
			run.failures = append(run.failures, fmt.Sprintf("%s reply differs from the cold reply: %.80s", r.cache, r.key))
		}
	}
}

// serviceDir is the temporary directory of one service run.
func serviceDir(b *bench) (string, error) {
	out := b.cfg.out
	if out == "" {
		out = "."
	}
	dir := filepath.Join(out, fmt.Sprintf("service-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// runService drives a loasd daemon, in its own process with its ledger
// in a temporary directory, with nproc closed-loop clients. Op: one cold
// synthesis request; item: one request of a hit phase (a cache hit, a
// batch over cached results or a /v1/runs read). Both are the daemon's
// CPU time.
func runService(b *bench) error {
	dir, err := serviceDir(b)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dm, err := serviceSetup(b, dir)
	if err != nil {
		return err
	}
	run, err := drive(b, dm, b.cfg.run, nil)
	if err != nil {
		dm.kill()
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(dm.cmd.Process.Pid))
	if err != nil {
		dm.kill()
		return err
	}
	if err := dm.stop(); err != nil {
		return err
	}
	hits, cold := run.lat["hit"], run.lat["cold"]
	if len(hits) == 0 || len(cold) == 0 || run.hitReqs == 0 {
		return fmt.Errorf("service: run too short (%d hits, %d cold syntheses)", len(hits), len(cold))
	}
	b.named("svc_rps", float64(run.requests)/run.wall, "1/s", run.requests, "requests / wall")
	b.named("svc_hit_p50_ms", median(hits)*1e3, "ms", len(hits), "median wall, cache hit or dedup")
	if percentileOK(len(hits), 0.99) {
		b.named("svc_hit_p99_ms", quantile(hits, 0.99)*1e3, "ms", len(hits), "p99 wall")
	} else {
		b.notef("metric svc_hit_p99_ms not reported: %d hits leave fewer than 10 beyond p99", len(hits))
	}
	b.named("svc_cold_p50_s", median(cold), "s", len(cold), "median wall")
	b.named("svc_peak_rss_mb", rss, "MB", 1, "daemon VmHWM")
	b.named("svc_cold_cpu_s", comboMean(run.coldCPU), "s", len(cold), "daemon CPU, mean over combos of the median")
	b.named("svc_hit_cpu_ms", run.hitCPU/float64(run.hitReqs)*1e3, "ms", run.hitReqs, "daemon CPU per hit-phase request")
	b.notef("requests: %d hit/dedup, %d cold, %d batch, %d runs reads",
		len(hits), len(cold), len(run.lat["batch"]), len(run.lat["runs"]))
	b.set("op_cpu_ms", comboMean(run.coldCPU)*1e3)
	b.set("item_cpu_ms", run.hitCPU/float64(run.hitReqs)*1e3)
	b.set("alloc_mb_per_op", comboMean(run.coldAlloc)/1e6)
	return nil
}

// traceService is the traced run of service: half the run length on one
// daemon untraced, half on a fresh daemon with a client-side span around
// every request. The daemon's own view — its /metrics counters and the
// span trees its ledger recorded for every cold run — supplies the serve,
// obs, sizing and layout figures.
func traceService(b *bench) error {
	dir, err := serviceDir(b)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dm, err := serviceSetup(b, dir)
	if err != nil {
		return err
	}
	plain, err := drive(b, dm, b.cfg.run/2, nil)
	if err != nil {
		dm.kill()
		return err
	}
	if err := dm.stop(); err != nil {
		return err
	}
	dm, err = startDaemon(b.cfg.loasd, filepath.Join(dir, "traced"))
	if err != nil {
		return err
	}
	traced, err := drive(b, dm, b.cfg.run/2, b.spans)
	if err != nil {
		dm.kill()
		return err
	}
	prom, err := dm.get("/metrics")
	if err != nil {
		dm.kill()
		return err
	}
	if err := dm.stop(); err != nil {
		return err
	}
	if plain.hitReqs == 0 || traced.hitReqs == 0 {
		return fmt.Errorf("service trace: run too short for a hit phase")
	}
	ph := plain.hitCPU / float64(plain.hitReqs)
	th := traced.hitCPU / float64(traced.hitReqs)
	b.set("tracing_overhead", th/ph-1)
	b.notef("daemon CPU per hit-phase request: untraced %.4f ms (n=%d), traced %.4f ms (n=%d)",
		ph*1e3, plain.hitReqs, th*1e3, traced.hitReqs)

	m := parseProm(prom)
	hits, misses := m["loas_cache_hits"], m["loas_cache_misses"]
	if hits+misses > 0 {
		b.set("serve.hit_ratio", hits/(hits+misses))
	}
	b.set("serve.dedup", m["loas_dedup_joined"])
	b.set("serve.backend_runs", m["loas_backend_runs"])
	b.set("serve.shed", m["loas_queue_rejected"])
	b.set("serve.queue_wait_p50_s", histQuantile(m, "loas_queue_wait_seconds", 0.5))

	info, err := os.Stat(dm.ledger)
	if err != nil {
		return err
	}
	b.set("obs.ledger_bytes_per_request", float64(info.Size())/float64(traced.requests))
	data, err := os.ReadFile(dm.ledger)
	if err != nil {
		return err
	}
	ledgerLayers(b, obs.DecodeRunRecords(data, 0))
	reportSpans(b, b.spans.snapshot())
	return nil
}

// ledgerLayers sets the sizing, layout, verification and loop figures
// from the span trees of the cold synthesis runs in the ledger: the
// median per run of each phase's summed span time. The daemon samples
// allocation process-wide, so with concurrent runs the alloc figures are
// upper bounds.
func ledgerLayers(b *bench, recs []obs.RunRecord) {
	per := map[string][]float64{}
	var calls, passes []float64
	for _, rec := range recs {
		if rec.Kind != "synthesize" || rec.Outcome != "ok" {
			continue
		}
		sums := map[string]float64{}
		for _, s := range rec.Spans {
			sums[s.Name] += float64(s.DurationNS) / 1e9
			sums[s.Name+".alloc"] += float64(s.AllocBytes) / 1e6
			if s.Name == "sizing" {
				sums["passes"]++
			}
		}
		backend := "slicing"
		if rec.Layout != "" {
			backend = rec.Layout
		}
		sums["layout."+backend] = sums["layout-extract"]
		for k, v := range sums {
			per[k] = append(per[k], v)
		}
		calls = append(calls, float64(rec.LayoutCalls))
		passes = append(passes, sums["passes"])
	}
	b.set("sizing.s", median(per["sizing"]))
	b.set("sizing.alloc_mb", median(per["sizing.alloc"]))
	b.set("layout.slicing.s", median(per["layout.slicing"]))
	b.set("layout.rows.s", median(per["layout.rows"]))
	b.set("layout.alloc_mb", median(per["layout-extract.alloc"]))
	b.set("meas.verify_synth_s", median(per["verify-synthesized"]))
	b.set("meas.verify_extracted_s", median(per["verify-extracted"]))
	b.set("meas.alloc_mb", median(per["verify-synthesized.alloc"])+median(per["verify-extracted.alloc"]))
	b.set("core.layout_calls", median(calls))
	b.set("core.sizing_passes", median(passes))
	b.notef("ledger: %d records, %d cold synthesis runs", len(recs), len(calls))
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(text []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// histQuantile estimates a quantile of a Prometheus histogram by linear
// interpolation inside the bucket that holds it.
func histQuantile(m map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if s, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(s, `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := m[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	target := q * total
	prevLE, prevN := 0.0, 0.0
	for _, bk := range bs {
		if bk.n >= target {
			if bk.n == prevN || bk.le > 1e300 {
				return prevLE
			}
			return prevLE + (bk.le-prevLE)*(target-prevN)/(bk.n-prevN)
		}
		prevLE, prevN = bk.le, bk.n
	}
	return prevLE
}
