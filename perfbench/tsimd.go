package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tseries/internal/durable"
	"tseries/internal/serve"
	"tseries/internal/workloads"
)

// The tsimd_mix workload: an in-process tsimd (serve.Open with a
// durable data dir) behind httptest on loopback, driven over at most
// two client connections. The data dir is pre-seeded, untimed, with a
// journal of completed jobs; setup_s times serve.Open on a fresh copy
// of it until /readyz answers 200. Rounds of two phases follow: a
// sequential phase (one client, one fresh job at a time, then blocks of
// repeat submissions: each class's service cost without queueing) and a
// stretch of open loop sending a fixed mix at a fixed rate below
// capacity — repeat submissions of a few fixed specs (LRU cache hits)
// and fresh-seed small workloads (misses that simulate, then journal
// with fsync and store the result) with a result fetch each. A capacity
// phase (a closed loop of two clients, each keeping a few misses in
// flight) ends the pass.

// Every phase runs a fixed count of jobs, not a fixed time, because
// every job leaves its machine in the server's heap (see README.md), so
// the live heap follows the number of jobs run.
type tsimdConfig struct {
	preseed   int     // completed jobs in the pre-seeded journal
	setupReps int     // serve.Open repetitions for setup_s
	hitSpecs  int     // distinct specs behind the hit traffic
	rate      float64 // open-loop arrivals per second
	openShare float64 // share of the measured time planned for the open loop
	capPerS   float64 // capacity-phase jobs per second of measured time
}

var tsimdFull = tsimdConfig{preseed: 200, setupReps: 7, hitSpecs: 8, rate: 210, openShare: 0.5, capPerS: 15}

var tsimdTiny = tsimdConfig{preseed: 6, setupReps: 2, hitSpecs: 2, rate: 60, openShare: 0.6, capPerS: 20}

const (
	tsimdWorkers = 2
	// missEvery makes half the open loop misses: arrival i is a miss
	// when i%missEvery < 2.
	missEvery = 4
	// seqPerS is sequential misses per second of measured time.
	seqPerS = 20
	// The sequential hits run in hitBlocks blocks of hitsPerBlock. A hit
	// costs well under a millisecond, finer than one CPU-time or
	// allocation reading resolves, so each sample is a block's cost
	// divided by its hits.
	hitBlocks, hitsPerBlock = 80, 16
	// rounds splits the sequential phase and the open loop into
	// alternating stretches, so the sequential samples are spread over
	// the run rather than taken from one stretch of the host's speed.
	rounds = 10
)

// clients is the connection count: no more than the two CPUs the
// benchmark is sized for.
const clients = 2

// pollEvery is how often a client asks after a running job. Latencies
// come from the server's own stamps, so polling more often would not
// sharpen them; it would only spend CPU time that the CPU-time metrics
// would then count in proportion to how long each job took.
const pollEvery = 5 * time.Millisecond

// failLatency stands in for the latency of a failed or refused request:
// a failure misses every limit.
const failLatency = 1e6 // ms

// jobSpec is the k-th small job of a seeded stream: saxpy, stencil and
// matmul in turn, each with a fresh seed, so every spec is a distinct
// cache key.
func jobSpec(k int, seed int64) serve.JobSpec {
	s := strconv.FormatInt(seed, 10)
	switch k % 3 {
	case 0:
		return serve.JobSpec{Tenant: "bench", Workload: "saxpy", Flags: map[string]string{"dim": "2", "rows": "8", "seed": s}}
	case 1:
		return serve.JobSpec{Tenant: "bench", Workload: "stencil", Flags: map[string]string{"dim": "2", "n": "16", "iters": "4", "seed": s}}
	default:
		return serve.JobSpec{Tenant: "bench", Workload: "matmul", Flags: map[string]string{"dim": "2", "n": "8", "seed": s}}
	}
}

// specStream hands out the fresh specs of one seed's stream.
type specStream struct {
	mu   sync.Mutex
	next int
	base int64
}

func (s *specStream) fresh() serve.JobSpec {
	s.mu.Lock()
	k := s.next
	s.next++
	s.mu.Unlock()
	return jobSpec(k, s.base+int64(k))
}

// direct runs spec in process, outside the service, and encodes the
// report exactly as tsim -json does: the oracle for every service body.
func direct(spec serve.JobSpec) ([]byte, error) {
	r, err := workloads.Get(spec.Workload)
	if err != nil {
		return nil, err
	}
	cfg := workloads.DefaultConfig()
	for k, v := range spec.Flags {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, err
		}
		switch k {
		case "dim":
			cfg.Dim = int(n)
		case "rows":
			cfg.Rows = int(n)
		case "n":
			cfg.N = int(n)
		case "iters":
			cfg.Iters = int(n)
		case "seed":
			cfg.Seed = n
		default:
			return nil, fmt.Errorf("direct: flag %q", k)
		}
	}
	rep, err := r.Run(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// client is one loopback connection to the service.
type client struct {
	base string
	hc   *http.Client
	tr   *recorder
	tid  int   // trace thread: the client's index
	root *span // the phase the client's spans belong to
}

func newClient(base string, tr *recorder) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: time.Minute}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body.
func (c *client) do(span, method, path string, body []byte) (int, []byte, error) {
	sp := c.tr.start(span, c.root, c.tid, 0)
	defer c.tr.end(sp, 0)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts spec; a refusal (anything but 200 or 202) is an error.
func (c *client) submit(spec serve.JobSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	code, data, err := c.do("serve.post_job", http.MethodPost, "/jobs", body)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return st, fmt.Errorf("submit refused: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	return st, json.Unmarshal(data, &st)
}

func (c *client) status(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	code, data, err := c.do("serve.get_status", http.MethodGet, "/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, code)
	}
	return st, json.Unmarshal(data, &st)
}

func (c *client) result(id string) ([]byte, error) {
	code, data, err := c.do("serve.get_result", http.MethodGet, "/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d", id, code)
	}
	return data, nil
}

// waitDone polls a job until it is terminal.
func (c *client) waitDone(id string, every time.Duration) (serve.JobStatus, error) {
	for {
		st, err := c.status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone:
			return st, nil
		case serve.StateQueued, serve.StateRunning:
			time.Sleep(every)
		default:
			return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
}

// op is one measured request and what the oracle needs to check it.
type op struct {
	phase      string // "open", "seq" or "cap"
	hit        bool
	traced     bool // its client calls were recorded as spans
	spec       serve.JobSpec
	due        time.Time // when the request was due (open loop) or sent
	lag        time.Duration
	id         string
	latency    time.Duration // hit: due → result bytes; miss: due → done
	resultTime time.Duration // GET /jobs/{id}/result
	submitted  time.Time     // server stamps of a miss
	started    time.Time
	finished   time.Time
	body       []byte
	err        error
	lastPoll   time.Time
}

// fetchHit submits a hit spec and reads its result: the hit's latency
// runs from its due time to the result bytes.
func (o *op) fetchHit(c *client) {
	st, err := c.submit(o.spec)
	if err == nil && !st.Cached {
		err = fmt.Errorf("hit spec %s was not served from the cache", st.Key)
	}
	if err == nil {
		o.id = st.ID
		t0 := time.Now()
		o.body, err = c.result(st.ID)
		o.resultTime = time.Since(t0)
	}
	o.latency, o.err = time.Since(o.due), err
}

// settle polls a submitted miss once. When it is terminal it records
// the server's stamps and fetches the result, and reports true.
func (o *op) settle(c *client) bool {
	o.lastPoll = time.Now()
	st, err := c.status(o.id)
	if err == nil && (st.State == serve.StateQueued || st.State == serve.StateRunning) {
		return false
	}
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", o.id, st.State, st.Error)
	}
	if err != nil {
		o.err = err
		return true
	}
	o.submitted, _ = time.Parse(time.RFC3339Nano, st.Submitted)
	o.started, _ = time.Parse(time.RFC3339Nano, st.Started)
	o.finished, _ = time.Parse(time.RFC3339Nano, st.Finished)
	o.latency = o.finished.Sub(o.due)
	t0 := time.Now()
	o.body, o.err = c.result(o.id)
	o.resultTime = time.Since(t0)
	return true
}

// server is one running service instance behind its loopback listener.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
}

func openServer(dir string, workers int) (*server, error) {
	srv, err := serve.Open(serve.Options{
		Workers: workers, Queue: 1024, Rate: 1e6, Burst: 1e6, MaxInFlight: 1 << 20,
		DataDir: dir,
		Logf:    func(format string, args ...interface{}) { fmt.Fprintf(os.Stderr, "tsimd: "+format+"\n", args...) },
	})
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(c *client) error {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		code, _, err := c.do("serve.readyz", http.MethodGet, "/readyz", nil)
		if err != nil {
			return err
		}
		if code == http.StatusOK {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("tsimd: /readyz not 200 within a minute")
}

func (s *server) close() error {
	s.ts.Close()
	return s.srv.Drain(time.Minute)
}

// preseed fills dir with the journal and store of n completed jobs.
func preseed(dir string, cfg tsimdConfig, specs *specStream) error {
	s, err := openServer(dir, tsimdWorkers)
	if err != nil {
		return err
	}
	c := newClient(s.ts.URL, nil)
	defer c.close()
	var ids []string
	for i := 0; i < cfg.preseed; i++ {
		st, err := c.submit(specs.fresh())
		if err != nil {
			s.close()
			return err
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := c.waitDone(id, time.Millisecond); err != nil {
			s.close()
			return err
		}
	}
	return s.close()
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// pass is one run of the phases.
type pass struct {
	ops       []*op
	capDur    time.Duration // first submission to last completion
	seqCPU    []float64     // process CPU seconds of each sequential miss
	seqAlloc  []float64     // bytes allocated during each sequential miss
	hitCPU    []float64     // process CPU seconds per hit of each block
	hitAlloc  []float64     // bytes allocated per hit of each block
	seqEvents int64         // kernel events of the sequential misses
	capDone   int
	capEvents int64
	stats     serve.Stats // counter delta over the pass
}

// runPass drives s for about dur: rounds of a sequential phase (one
// client submitting one miss at a time, then blocks of hits: service
// cost, no queueing) each followed by a stretch of the open loop at
// cfg.rate, then a capacity phase of two clients each keeping capWindow
// misses in flight. Misses come from specs; hits cycle through
// hitSpecs.
func runPass(s *server, cfg tsimdConfig, seed int64, dur time.Duration, specs *specStream, hitSpecs []serve.JobSpec, tr *recorder) *pass {
	p := &pass{}
	secs := dur.Seconds()
	rng := rand.New(rand.NewSource(seed))
	arrivals := int(cfg.rate * cfg.openShare * secs / rounds)
	before := s.srv.Snapshot()
	for r := 0; r < rounds; r++ {
		p.sequential(s, max(int(seqPerS*secs/rounds), 1), specs, hitSpecs, tr)
		offsets := make([]time.Duration, arrivals)
		var t time.Duration
		for i := range offsets {
			t += time.Duration(rng.ExpFloat64() / cfg.rate * float64(time.Second))
			offsets[i] = t
		}
		p.ops = append(p.ops, runOpenLoop(s, offsets, specs, hitSpecs, tr)...)
	}

	runtime.GC()
	cs := s.srv.Snapshot()
	capOps := runCapacity(s, max(int(cfg.capPerS*secs), clients), specs, tr)
	var first, last time.Time
	for _, o := range capOps {
		if o.err != nil {
			continue
		}
		p.capDone++
		if first.IsZero() || o.submitted.Before(first) {
			first = o.submitted
		}
		if o.finished.After(last) {
			last = o.finished
		}
	}
	p.capDur = last.Sub(first)
	p.capEvents = s.srv.Snapshot().SimEvents - cs.SimEvents
	p.ops = append(p.ops, capOps...)

	after := s.srv.Snapshot()
	p.stats = serve.Stats{
		CacheHits: after.CacheHits - before.CacheHits, CacheMisses: after.CacheMisses - before.CacheMisses,
		Deduped:           after.Deduped - before.Deduped,
		RejectedQueueFull: after.RejectedQueueFull - before.RejectedQueueFull, RejectedRate: after.RejectedRate - before.RejectedRate,
		RejectedQuota: after.RejectedQuota - before.RejectedQuota, RejectedDraining: after.RejectedDraining - before.RejectedDraining,
		SimEvents: after.SimEvents - before.SimEvents, SimWindows: after.SimWindows - before.SimWindows,
		SimCrossShard:       after.SimCrossShard - before.SimCrossShard,
		MemRowsMaterialized: after.MemRowsMaterialized - before.MemRowsMaterialized,
		MemCowCopies:        after.MemCowCopies - before.MemCowCopies,
		MemResidentBytes:    after.MemResidentBytes - before.MemResidentBytes,
	}
	return p
}

// sequential runs n misses, then hitBlocks/rounds blocks of hits, one
// request at a time over one client. Nothing else runs, so the
// process's CPU time and allocation across a request, submit to result
// bytes, are that request's cost to the service. It starts right after
// a collection, so whether a cycle over the jobs' retained machines
// lands inside it does not depend on what ran before.
func (p *pass) sequential(s *server, n int, specs *specStream, hitSpecs []serve.JobSpec, tr *recorder) {
	runtime.GC()
	sp := tr.start("serve.sequential", nil, -1, 0)
	defer tr.end(sp, 0)
	ss := s.srv.Snapshot()
	c := newClient(s.ts.URL, tr)
	defer c.close()
	c.root = sp
	for i := 0; i < n; i++ {
		// A traced pass traces every other job, so the two halves give
		// the tracing overhead on the same server state.
		c.tr = nil
		if i%2 == 0 {
			c.tr = tr
		}
		o := &op{phase: "seq", traced: c.tr != nil, spec: specs.fresh(), due: time.Now()}
		p.ops = append(p.ops, o)
		a0, _ := heap()
		cpu0 := cpuTime()
		st, err := c.submit(o.spec)
		if o.id, o.err = st.ID, err; err != nil {
			continue
		}
		// The first poll waits a full interval: most jobs are done by
		// then, so most cost one poll, not two.
		for done := false; !done; {
			time.Sleep(pollEvery)
			done = o.settle(c)
		}
		p.seqCPU = append(p.seqCPU, (cpuTime() - cpu0).Seconds())
		a1, _ := heap()
		p.seqAlloc = append(p.seqAlloc, float64(a1-a0))
	}
	p.seqEvents += s.srv.Snapshot().SimEvents - ss.SimEvents
	c.tr = tr
	for b := 0; b < hitBlocks/rounds; b++ {
		a0, _ := heap()
		cpu0 := cpuTime()
		for i := 0; i < hitsPerBlock; i++ {
			o := &op{phase: "seqhit", hit: true, spec: hitSpecs[(b*hitsPerBlock+i)%len(hitSpecs)], due: time.Now()}
			p.ops = append(p.ops, o)
			o.fetchHit(c)
		}
		p.hitCPU = append(p.hitCPU, (cpuTime()-cpu0).Seconds()/hitsPerBlock)
		a1, _ := heap()
		p.hitAlloc = append(p.hitAlloc, float64(a1-a0)/hitsPerBlock)
	}
}

// runOpenLoop sends one request per offset, each at its due time, over
// the two clients; while a client waits for its next due time it polls
// the misses still running. It returns once every miss has settled.
func runOpenLoop(s *server, offsets []time.Duration, specs *specStream, hitSpecs []serve.JobSpec, tr *recorder) []*op {
	ops := make([]*op, len(offsets))
	var mu sync.Mutex
	var pending []*op
	// pollOne settles one pending miss not polled within pollEvery.
	pollOne := func(c *client) bool {
		mu.Lock()
		var o *op
		for i, q := range pending {
			if time.Since(q.lastPoll) >= pollEvery {
				o = q
				pending = append(pending[:i], pending[i+1:]...)
				break
			}
		}
		mu.Unlock()
		if o != nil && !o.settle(c) {
			mu.Lock()
			pending = append(pending, o)
			mu.Unlock()
		}
		return o != nil
	}

	sp := tr.start("serve.open_loop", nil, -1, 0)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		c := newClient(s.ts.URL, tr)
		c.tid, c.root = w, sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					break
				}
				due := start.Add(offsets[i])
				for time.Until(due) > time.Millisecond {
					if !pollOne(c) {
						time.Sleep(min(time.Until(due), time.Millisecond))
					}
				}
				time.Sleep(time.Until(due))
				o := &op{phase: "open", hit: i%missEvery >= 2, due: due, lag: time.Since(due)}
				ops[i] = o
				if o.hit {
					o.spec = hitSpecs[i%len(hitSpecs)]
					o.fetchHit(c)
					continue
				}
				o.spec = specs.fresh()
				st, err := c.submit(o.spec)
				if o.id, o.err = st.ID, err; err != nil {
					continue
				}
				mu.Lock()
				pending = append(pending, o)
				mu.Unlock()
			}
			for deadline := time.Now().Add(time.Minute); ; {
				mu.Lock()
				left := len(pending)
				mu.Unlock()
				if left == 0 || time.Now().After(deadline) {
					break
				}
				if !pollOne(c) {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	tr.end(sp, 0)
	for _, o := range pending {
		o.err = fmt.Errorf("job %s did not finish within a minute of the open loop", o.id)
	}
	return ops
}

// capWindow is how many misses each capacity-phase client keeps in
// flight: enough that a worker finishing a job finds the next one
// queued while the clients poll.
const capWindow = 4

// runCapacity runs n fresh misses through a closed loop of two clients,
// each submitting a new job whenever one of its capWindow jobs is done.
func runCapacity(s *server, n int, specs *specStream, tr *recorder) []*op {
	sp := tr.start("serve.capacity", nil, -1, 0)
	defer tr.end(sp, 0)
	var left atomic.Int64
	left.Store(int64(n))
	var mu sync.Mutex
	var ops []*op
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		c := newClient(s.ts.URL, tr)
		c.tid, c.root = w, sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			var inflight, mine []*op
			for {
				for len(inflight) < capWindow && left.Add(-1) >= 0 {
					o := &op{phase: "cap", spec: specs.fresh(), due: time.Now()}
					mine = append(mine, o)
					st, err := c.submit(o.spec)
					if o.id, o.err = st.ID, err; err == nil {
						inflight = append(inflight, o)
					}
				}
				if len(inflight) == 0 {
					break
				}
				still := inflight[:0]
				for _, o := range inflight {
					if !o.settle(c) {
						still = append(still, o)
					}
				}
				if len(still) == len(inflight) {
					time.Sleep(pollEvery)
				}
				inflight = still
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ops
}

// check runs the oracle over every op of a pass, untimed: a hit's bytes
// must equal its spec's first (miss) result, and every miss's bytes a
// direct in-process run of its spec. It then drops the bodies, so the
// live heap counts the service's memory, not the benchmark's.
func (p *pass) check(hitBodies map[string][]byte) []*op {
	if p == nil {
		return nil
	}
	for _, o := range p.ops {
		body := o.body
		o.body = nil
		if o.err != nil {
			continue
		}
		if o.hit {
			key := specKey(o.spec)
			if !bytes.Equal(body, hitBodies[key]) {
				o.err = fmt.Errorf("hit %s: body differs from its miss's body", key)
			}
			continue
		}
		want, err := direct(o.spec)
		if err != nil {
			o.err = fmt.Errorf("direct run of %s: %w", specKey(o.spec), err)
		} else if !bytes.Equal(body, want) {
			o.err = fmt.Errorf("miss %s: body differs from a direct run", specKey(o.spec))
		}
	}
	return p.ops
}

func specKey(spec serve.JobSpec) string {
	b, _ := json.Marshal(spec)
	return string(b)
}

// ms returns d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the ms latencies of one phase's ops of one class,
// failures counted as missing every limit.
func (p *pass) latencies(phase string, hit bool, pick func(*op) time.Duration) []float64 {
	var xs []float64
	for _, o := range p.ops {
		if o.phase != phase || o.hit != hit {
			continue
		}
		if o.err != nil {
			xs = append(xs, failLatency)
			continue
		}
		xs = append(xs, ms(pick(o)))
	}
	return xs
}

func latency(o *op) time.Duration { return o.latency }

// tsimdMeasure runs tsimd_mix and fills o. With trace it runs an
// untraced pass, which gives every figure but the spans, then a traced
// pass of half its length for the spans and the tracing overhead.
func tsimdMeasure(cfg tsimdConfig, seed int64, seconds float64, trace bool, traceOut string, o *outcome) error {
	root, err := os.MkdirTemp("", "perfbench-tsimd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	specs := &specStream{base: seed * 1_000_000}
	template := filepath.Join(root, "template")
	if err := preseed(template, cfg, &specStream{base: seed*1_000_000 + 500_000}); err != nil {
		return fmt.Errorf("preseed: %w", err)
	}

	// setup_s: serve.Open on a fresh copy of the seeded dir until ready.
	var setups, setupWalls []float64
	var s *server
	for r := 0; r < cfg.setupReps; r++ {
		dir := filepath.Join(root, fmt.Sprintf("run%d", r))
		if err := copyDir(template, dir); err != nil {
			return err
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		srv, err := openServer(dir, tsimdWorkers)
		if err != nil {
			return err
		}
		c := newClient(srv.ts.URL, nil)
		err = srv.waitReady(c)
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		setups = append(setups, (cpuTime() - c0).Seconds())
		c.close()
		if err != nil {
			srv.close()
			return err
		}
		if r < cfg.setupReps-1 {
			if err := srv.close(); err != nil {
				return err
			}
			os.RemoveAll(dir)
			continue
		}
		s = srv
	}
	defer s.close()
	o.e2e["setup_s"] = median(setups)
	o.layer["setup_wall_s"] = median(setupWalls)

	// Warm the hit specs: their first submission is a miss.
	hitSpecs := make([]serve.JobSpec, cfg.hitSpecs)
	hitBodies := map[string][]byte{}
	hs := &specStream{base: seed*1_000_000 + 900_000}
	c := newClient(s.ts.URL, nil)
	for i := range hitSpecs {
		hitSpecs[i] = hs.fresh()
		st, err := c.submit(hitSpecs[i])
		if err == nil {
			_, err = c.waitDone(st.ID, time.Millisecond)
		}
		var body []byte
		if err == nil {
			body, err = c.result(st.ID)
		}
		if err == nil {
			var want []byte
			if want, err = direct(hitSpecs[i]); err == nil && !bytes.Equal(body, want) {
				err = fmt.Errorf("hit spec %s: first result differs from a direct run", specKey(hitSpecs[i]))
			}
		}
		o.attempt(err)
		hitBodies[specKey(hitSpecs[i])] = body
	}
	c.close()

	dur := time.Duration(seconds * float64(time.Second))
	p := runPass(s, cfg, seed, dur, specs, hitSpecs, nil)
	var tr *recorder
	var tp *pass
	if trace {
		tr = newRecorder()
		tr.setRun(1)
		tp = runPass(s, cfg, seed+1, dur/2, specs, hitSpecs, tr)
	}
	for _, q := range append(p.check(hitBodies), tp.check(hitBodies)...) {
		o.attempt(q.err)
	}
	o.e2e["live_heap_mb"] = liveHeapMiB()
	runtime.KeepAlive(s)
	seq := p.latencies("seq", false, latency)
	o.samples = len(p.ops)
	// The two CPU metrics split by request class: run_cpu_s is a hit's
	// cost, sim_events_per_cpu_s the misses'. One figure over both would
	// let a cheaper hit path hide a dearer write path, and a hit costs
	// less than a tenth of a miss. alloc_mb is per request at the open
	// loop's mix, one hit per miss.
	missCPU, hitCPU := median(p.seqCPU), median(p.hitCPU)
	missAlloc, hitAlloc := median(p.seqAlloc)/mib, median(p.hitAlloc)/mib
	o.e2e["run_cpu_s"] = hitCPU
	o.e2e["alloc_mb"] = (missAlloc + hitAlloc) / 2
	var seqCPU float64
	for _, c := range p.seqCPU {
		seqCPU += c
	}
	o.e2e["sim_events_per_cpu_s"] = float64(p.seqEvents) / seqCPU
	o.notes = append(o.notes,
		fmt.Sprintf("open loop: %d misses, %d hits; sequential: %d misses, %d hits; capacity: %d jobs",
			len(p.latencies("open", false, latency)), len(p.latencies("open", true, latency)), len(seq),
			len(p.latencies("seqhit", true, latency)), p.capDone),
		fmt.Sprintf("sequential medians: miss %.4g ms CPU, %.4g MiB allocated; hit %.4g ms CPU, %.4g MiB allocated",
			1000*missCPU, missAlloc, 1000*hitCPU, hitAlloc))
	o.layer["run_s"] = median(seq) / 1000
	o.layer["sim_events_per_s"] = float64(p.capEvents) / p.capDur.Seconds()
	fillServeMetrics(p, o.layer)
	o.sim.Events = p.stats.SimEvents
	if !trace {
		return nil
	}

	o.trace = tr
	var on, off []float64
	for _, q := range tp.ops {
		if q.phase == "seq" && q.err == nil {
			if q.traced {
				on = append(on, ms(q.latency))
			} else {
				off = append(off, ms(q.latency))
			}
		}
	}
	o.layer["trace_overhead_frac"] = median(on)/median(off) - 1
	st := p.stats
	o.layer["sim.events"] = float64(st.SimEvents)
	o.layer["sim.windows"] = float64(st.SimWindows)
	o.layer["sim.cross_shard"] = float64(st.SimCrossShard)
	o.layer["sim.host_ns_per_event"] = p.capDur.Seconds() * 1e9 / float64(p.capEvents)
	o.layer["memory.rows_materialized"] = float64(st.MemRowsMaterialized)
	o.layer["memory.cow_copies"] = float64(st.MemCowCopies)
	o.layer["memory.resident_mb"] = float64(st.MemResidentBytes) / mib

	// serve.submit_us: the benchmark's own Server.Submit calls on fresh
	// specs, each fsync-journaled before it returns.
	var submits []float64
	c = newClient(s.ts.URL, nil)
	defer c.close()
	for i := 0; i < 50; i++ {
		spec := specs.fresh()
		sp := tr.start("serve.submit", nil, 0, 0)
		t0 := time.Now()
		_, _, apiErr := s.srv.Submit(&spec)
		submits = append(submits, float64(time.Since(t0))/float64(time.Microsecond))
		tr.end(sp, 0)
		if apiErr != nil {
			o.attempt(apiErr)
		}
	}
	o.layer["serve.submit_us"] = median(submits)
	if err := durableProbes(filepath.Join(root, "probe"), filepath.Join(template, "journal"), hitBodies, tr, o.layer); err != nil {
		return err
	}
	return tr.write(traceOut, map[string]any{"workload": "tsimd_mix", "seed": seed})
}

// fillServeMetrics sets the service-level metrics of one pass.
func fillServeMetrics(p *pass, out map[string]float64) {
	missLat := p.latencies("open", false, latency)
	hitLat := p.latencies("open", true, latency)
	var results, waits, execs, lags []float64
	for _, q := range p.ops {
		if q.err != nil || q.phase != "open" {
			continue
		}
		results = append(results, ms(q.resultTime))
		lags = append(lags, ms(q.lag))
		if !q.hit {
			waits = append(waits, ms(q.started.Sub(q.submitted)))
			execs = append(execs, ms(q.finished.Sub(q.started)))
		}
	}
	out["miss_p50_ms"] = median(missLat)
	out["miss_p99_ms"] = quantile(missLat, 0.99)
	out["hit_p50_ms"] = median(hitLat)
	out["hit_p99_ms"] = quantile(hitLat, 0.99)
	out["result_p99_ms"] = quantile(results, 0.99)
	out["capacity_jobs_per_s"] = float64(p.capDone) / p.capDur.Seconds()
	out["serve.queue_wait_ms_p99"] = quantile(waits, 0.99)
	out["serve.exec_ms_p50"] = median(execs)
	submits := p.stats.CacheHits + p.stats.CacheMisses + p.stats.Deduped
	out["serve.hit_ratio"] = float64(p.stats.CacheHits) / float64(max(submits, 1))
	out["serve.rejected"] = float64(p.stats.RejectedQueueFull + p.stats.RejectedRate + p.stats.RejectedQuota + p.stats.RejectedDraining)
	out["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
}

// durableProbes times the durable layer's public calls on the
// service's own shapes: journal appends of accepted records, store puts
// and gets of real result bodies, and replay of the pre-seeded journal.
func durableProbes(dir, seeded string, bodies map[string][]byte, tr *recorder, out map[string]float64) error {
	defer os.RemoveAll(dir)
	j, _, err := durable.OpenJournal(filepath.Join(dir, "journal"), durable.JournalOptions{})
	if err != nil {
		return err
	}
	var syncs, lazies []float64
	n := 0
	for key := range bodies {
		for i := 0; i < 100; i++ {
			n++
			rec := durable.Record{Op: durable.OpAccepted, Job: "j" + strconv.Itoa(n), Tenant: "bench", Key: key, Spec: json.RawMessage(key)}
			sp := tr.start("durable.append_sync", nil, 0, 0)
			t0 := time.Now()
			err := j.Append(rec)
			syncs = append(syncs, float64(time.Since(t0))/float64(time.Microsecond))
			tr.end(sp, 0)
			if err != nil {
				j.Close()
				return err
			}
			rec.Op, rec.Spec = durable.OpRunning, nil
			sp = tr.start("durable.append_lazy", nil, 0, 0)
			t0 = time.Now()
			err = j.AppendLazy(rec)
			lazies = append(lazies, float64(time.Since(t0))/float64(time.Microsecond))
			tr.end(sp, 0)
			if err != nil {
				j.Close()
				return err
			}
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	out["durable.append_sync_us_p50"] = median(syncs)
	out["durable.append_sync_us_p99"] = quantile(syncs, 0.99)
	out["durable.append_lazy_us"] = median(lazies)

	st, err := durable.OpenStore(filepath.Join(dir, "store"), nil)
	if err != nil {
		return err
	}
	var puts, gets []float64
	i := 0
	for key, body := range bodies {
		for r := 0; r < 20; r++ {
			i++
			k := key + "#" + strconv.Itoa(i)
			sp := tr.start("durable.put", nil, 0, 0)
			t0 := time.Now()
			err := st.Put(k, body)
			puts = append(puts, float64(time.Since(t0))/float64(time.Microsecond))
			tr.end(sp, 0)
			if err != nil {
				return err
			}
			sp = tr.start("durable.get", nil, 0, 0)
			t0 = time.Now()
			got, ok := st.Get(k)
			gets = append(gets, float64(time.Since(t0))/float64(time.Microsecond))
			tr.end(sp, 0)
			if !ok || !bytes.Equal(got, body) {
				return fmt.Errorf("durable probe: store lost %s", k)
			}
		}
	}
	out["durable.put_us"] = median(puts)
	out["durable.get_us"] = median(gets)

	var replays []float64
	for r := 0; r < 5; r++ {
		cp := filepath.Join(dir, "replay"+strconv.Itoa(r))
		if err := copyDir(seeded, cp); err != nil {
			return err
		}
		sp := tr.start("durable.replay", nil, 0, 0)
		t0 := time.Now()
		j, _, err := durable.OpenJournal(cp, durable.JournalOptions{})
		replays = append(replays, float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(sp, 0)
		if err != nil {
			return err
		}
		j.Close()
	}
	out["durable.replay_ms"] = median(replays)
	return nil
}
