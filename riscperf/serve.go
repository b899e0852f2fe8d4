package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"risc1"
	"risc1/internal/serve"
)

// serveProbeSeconds is how long a traced suite run drives serve_hot traffic
// to measure the serve layer, which the suite itself never calls.
const serveProbeSeconds = 2

// replayMax caps how many traced requests a traced run replays as direct
// RunImage calls.
const replayMax = 4000

// A program is one short Cm program of the serve mix. Its source takes the
// size n and a constant nonce that the program adds to what it prints; the
// served requests always use nonce 0, so their images are cached, and the
// compiler probe a fresh one per source, so it builds each from scratch.
type program struct {
	name string
	src  string // fmt pattern of n, then nonce
	ref  func(n int32) int32
	ns   []int32
}

var (
	fibProgram = program{
		name: "fib",
		src: `int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { putint(fib(%d) + %d); return 0; }`,
		ref: func(n int32) int32 {
			a, b := int32(0), int32(1)
			for i := int32(0); i < n; i++ {
				a, b = b, a+b
			}
			return a
		},
		ns: []int32{10, 11, 12},
	}
	sumsqProgram = program{
		name: "sumsq",
		src: `int main() {
    int i; int s;
    s = 0;
    for (i = 1; i <= %d; i++) s += i * i;
    putint(s + %d);
    return 0;
}`,
		ref: func(n int32) int32 { return n * (n + 1) * (2*n + 1) / 6 },
		ns:  []int32{100, 200, 300},
	}
	// spawnProgram is riscload's spawn/lock program: two workers add to a
	// lock-guarded total on the shared-memory machine.
	spawnProgram = program{
		name: "spawn",
		src: `int total;
void worker(int k) {
    lock(0);
    total += k + %d;
    unlock(0);
}
int main() {
    int h1; int h2;
    h1 = spawn(worker, 0);
    h2 = spawn(worker, 1);
    join(h1);
    join(h2);
    putint(total + %d);
    return 0;
}`,
		ref: func(n int32) int32 { return 2*n + 1 },
		ns:  []int32{1, 2, 3},
	}
)

// serveCores is the core count of the spawn program's requests.
const serveCores = 2

// serveMachines are the machines a request can ask for; smp runs the spawn
// program, the others run fib or sumsq.
var serveMachines = []machine{
	{"windowed", risc1.RISCWindowed, 0},
	{"flat", risc1.RISCFlat, 0},
	{"cisc", risc1.CISC, 0},
	{"pipelined", risc1.RISCPipelined, 0},
	{"smp", risc1.RISCWindowed, serveCores},
}

// runBody is the /v1/run request the benchmark sends.
type runBody struct {
	Source string `json:"source"`
	Target string `json:"target,omitempty"`
	Cores  int    `json:"cores,omitempty"`
}

// runReply is the part of the /v1/run response the benchmark checks.
type runReply struct {
	Console      string `json:"console"`
	Instructions uint64 `json:"instructions"`
	Cached       bool   `json:"cached"`
}

// request is one generated request with the console it must produce.
type request struct {
	body    runBody
	machine string
	target  risc1.Target
	want    string
	hotKey  string // the hot image the request runs, nonce aside

	prog         program // what the request was made from
	machineIndex int     // into serveMachines
	n            int32
}

func makeRequest(p program, mi int, n int32, nonce int64) request {
	m := serveMachines[mi]
	wire := m.name // riscd's name for the target
	if m.cores > 1 {
		wire = "windowed"
	}
	return request{
		body:    runBody{Source: fmt.Sprintf(p.src, n, nonce), Target: wire, Cores: m.cores},
		machine: m.name,
		target:  m.target,
		want:    fmt.Sprint(p.ref(n) + int32(nonce)),
		hotKey:  fmt.Sprintf("%s/%d/%s", p.name, n, m.name),

		prog:         p,
		machineIndex: mi,
		n:            n,
	}
}

// hotRequests lists every distinct hot request, the set warm-up sends.
func hotRequests() []request {
	var out []request
	for mi, m := range serveMachines {
		progs := []program{fibProgram, sumsqProgram}
		if m.cores > 1 {
			progs = []program{spawnProgram}
		}
		for _, p := range progs {
			for _, n := range p.ns {
				out = append(out, makeRequest(p, mi, n, 0))
			}
		}
	}
	return out
}

// generator deals the client's requests from the seed. It deals the hot
// requests like cards: every round is a fresh seeded shuffle of all of
// them, so the order depends on the seed but the mix of programs and
// machines does not, and a median over the mix cannot move with it. A
// cold generator gives every request a nonce no other request of the run
// uses.
type generator struct {
	rng   *rand.Rand
	deck  []request
	left  []request
	cold  bool
	nonce int64 // the next cold request's
}

func newGenerator(seed int64, cold bool) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{rng: rng, deck: hotRequests(), cold: cold, nonce: 1 + rng.Int63n(1<<20)}
}

func (g *generator) next() request {
	if len(g.left) == 0 {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.left = g.deck
	}
	req := g.left[0]
	g.left = g.left[1:]
	if !g.cold {
		return req
	}
	req = makeRequest(req.prog, req.machineIndex, req.n, g.nonce)
	g.nonce++
	return req
}

// opHeader carries a request's operation id to the handler wrapper, which
// times the request under it; tracedHeader asks the wrapper to record a
// span for the request.
const (
	opHeader     = "Riscperf-Op"
	tracedHeader = "Riscperf-Traced"
)

// serveProcs is the GOMAXPROCS serve traffic runs at. With one P the
// process runs one goroutine at a time, as the suite does: the garbage
// collector's idle workers cannot soak up the CPU the client leaves idle,
// which made the process's CPU time per request depend on how client,
// handler and collector happened to overlap.
const serveProcs = 1

// handlerWait is how long a client waits for the handler's CPU time after
// it has read the whole reply.
const handlerWait = 5 * time.Second

// cpuRecord is the thread CPU time the handler wrapper measured for one
// operation.
type cpuRecord struct {
	op  int64
	cpu time.Duration
}

// liveServer is an in-process riscd behind a loopback listener. Its
// handler wraps the server's ServeHTTP to time each request on the CPU
// clock of the thread that serves it, and hands the time back to the
// client. There is one client with one request in flight: a request's CPU
// time is not shared out with another one running beside it on the host's
// few cores.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
	tr   *tracer        // records the spans of traced requests
	cpu  chan cpuRecord // the handler CPU times of timed requests
}

func startServer(tr *tracer) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		srv:  serve.New(serve.Config{}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		tr:   tr,
		cpu:  make(chan cpuRecord, 4),
	}
	s.http = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *liveServer) serveHTTP(w http.ResponseWriter, r *http.Request) {
	op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if err != nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	runtime.LockOSThread()
	t0 := now()
	s.srv.ServeHTTP(w, r)
	t1 := now()
	runtime.UnlockOSThread()
	select {
	case s.cpu <- cpuRecord{op, t1.cpu - t0.cpu}:
	default: // the client gave up on its requests; drop the time
	}
	if r.Header.Get(tracedHeader) != "" {
		s.tr.record("serve.ServeHTTP", op, 0, t0.wall, t1.wall, t1.cpu-t0.cpu, 0)
	}
}

// handlerCPU returns the handler CPU time of operation op, skipping the
// times of earlier requests the client never collected.
func (s *liveServer) handlerCPU(op int64) (time.Duration, error) {
	timeout := time.NewTimer(handlerWait)
	defer timeout.Stop()
	for {
		select {
		case r := <-s.cpu:
			if r.op == op {
				return r.cpu, nil
			}
		case <-timeout.C:
			return 0, errors.New("the handler recorded no CPU time")
		}
	}
}

// close stops the server and waits until its serving goroutine has ended.
func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.srv.CancelRuns()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// errShed marks a request the server refused with 429.
var errShed = errors.New("refused with 429")

// sample is one request of the measured traffic.
type sample struct {
	req    request
	op     int64
	wall   time.Duration // as the client saw it
	cpu    time.Duration // the handler's thread CPU time
	reply  runReply
	err    error
	traced bool
}

// post sends one request and checks the reply against its reference. op,
// when not 0, asks the server wrapper to time the request under that id,
// and traced to record its span. The sample's wall time runs from sending
// the request to reading the whole reply.
func (s *liveServer) post(c *http.Client, req request, op int64, traced bool) sample {
	smp := sample{req: req, op: op, traced: traced}
	raw, err := json.Marshal(req.body)
	if err != nil {
		smp.err = err
		return smp
	}
	hr, err := http.NewRequest(http.MethodPost, s.url+"/v1/run", bytes.NewReader(raw))
	if err != nil {
		smp.err = err
		return smp
	}
	hr.Header.Set("Content-Type", "application/json")
	if op != 0 {
		hr.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	if traced {
		hr.Header.Set(tracedHeader, "1")
	}
	start := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		smp.err = err
		return smp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp.wall = time.Since(start)
	if op != 0 {
		var cerr error
		if smp.cpu, cerr = s.handlerCPU(op); cerr != nil && err == nil {
			err = fmt.Errorf("%s: %w", req.hotKey, cerr)
		}
	}
	switch {
	case err != nil:
		smp.err = fmt.Errorf("read reply: %w", err)
	case resp.StatusCode == http.StatusTooManyRequests:
		smp.err = errShed
	case resp.StatusCode != http.StatusOK:
		smp.err = fmt.Errorf("%s: status %d: %s", req.hotKey, resp.StatusCode, body)
	default:
		if err := json.Unmarshal(body, &smp.reply); err != nil {
			smp.err = fmt.Errorf("%s: decode reply: %w", req.hotKey, err)
		} else if smp.reply.Console != req.want {
			smp.err = fmt.Errorf("%s: console %q, want %q", req.hotKey, smp.reply.Console, req.want)
		}
	}
	return smp
}

// warmUp sends every hot request once, which fills the server's image
// cache.
func warmUp(c *http.Client, s *liveServer, t *tally) {
	for _, req := range hotRequests() {
		t.add(s.post(c, req, 0, false).err)
	}
}

// setUpServer starts a server and warms it up, and returns it with the
// process CPU time that took.
func setUpServer(c *http.Client, t *tally, tr *tracer) (*liveServer, float64, error) {
	runtime.GC()
	start := processCPU()
	s, err := startServer(tr)
	if err != nil {
		return nil, 0, err
	}
	warmUp(c, s, t)
	return s, (processCPU() - start).Seconds(), nil
}

// stopServer stops s and drops the client's connections to it.
func stopServer(c *http.Client, s *liveServer) error {
	err := s.close()
	c.CloseIdleConnections()
	return err
}

// serveWarmup is how long the client drives the server before the measured
// traffic starts. The process's CPU time per request falls by a fifth
// over the first seconds of traffic as its heap settles; requests sent in
// this time are checked but not measured.
const serveWarmup = 3 * time.Second

// trafficWindows is how many windows a traced run's traffic is cut into.
// They alternate untraced and traced in the order U T T U, which cancels
// a steady drift out of the comparison.
const trafficWindows = 8

// tracedWindow reports whether window or pass k of a traced run is traced.
func tracedWindow(k int) bool { return k%4 == 1 || k%4 == 2 }

// histSub is how many buckets a histogram has per octave.
const histSub = 256

// histogram counts durations in buckets a 256th of an octave wide and
// keeps the sum of each bucket. A percentile is the mean of the measured
// values in the bucket that holds its rank, within 0.4% of the exact
// nearest-rank value, and the histogram's size is fixed however many
// values it counts.
type histogram struct {
	count []uint32
	sum   []float64 // nanoseconds
	n     int       // values counted, infinite ones included
}

func newHistogram() *histogram {
	return &histogram{count: make([]uint32, 64*histSub), sum: make([]float64, 64*histSub)}
}

// add counts d; a failed operation is counted with addInf.
func (h *histogram) add(d time.Duration) {
	v := uint64(max(d, 1))
	b := int(v) // values below histSub ns have a bucket each
	if e := bits.Len64(v) - 1; e >= 8 {
		b = e*histSub + int(v>>(e-8))&(histSub-1)
	}
	h.count[b]++
	h.sum[b] += float64(v)
	h.n++
}

func (h *histogram) addInf() { h.n++ }

// percentile returns the nearest-rank p-th percentile in milliseconds, or
// +Inf when the rank falls on a failed operation.
func (h *histogram) percentile(p float64) float64 {
	i := min(max(int(p/100*float64(h.n)+0.5)-1, 0), h.n-1)
	seen := 0
	for b, c := range h.count {
		if seen += int(c); seen > i {
			return h.sum[b] / float64(c) / 1e6
		}
	}
	return math.Inf(1)
}

// reservoir keeps a uniform random choice of at most replayMax traced
// requests (Vitter's algorithm R) in room set aside before the traffic.
type reservoir struct {
	rng  *rand.Rand
	seen int
	keep []sample
}

func (r *reservoir) add(s sample) {
	r.seen++
	if len(r.keep) < cap(r.keep) {
		r.keep = append(r.keep, s)
	} else if j := r.rng.Intn(r.seen); j < len(r.keep) {
		r.keep[j] = s
	}
}

// serveRun is one run of serve traffic. It sums up the measured requests
// as they are answered, in room allocated before the traffic starts: were
// the benchmark to keep every request, its own heap would grow through the
// run and change how often the server's garbage collector runs.
type serveRun struct {
	latency *histogram      // handler CPU time; failed requests are infinite
	instr   []uint64        // guest instructions by serveMachines index
	cpu     []time.Duration // handler CPU time by serveMachines index
	// Requests answered, answered from the image cache, and refused.
	answered, cached, shed int

	// A traced run's traced requests: their wall times, and the ones kept
	// for replay.
	tracedWall *histogram
	traced     reservoir

	procCPU time.Duration // process CPU time the measured traffic took
	setupS  float64
	gc      gcStats
	// Process CPU time and requests in untraced [0] and traced [1]
	// windows of a traced run.
	windowCPU [2]time.Duration
	windowOps [2]int
}

func newServeRun(seed int64) *serveRun {
	return &serveRun{
		latency:    newHistogram(),
		instr:      make([]uint64, len(serveMachines)),
		cpu:        make([]time.Duration, len(serveMachines)),
		tracedWall: newHistogram(),
		traced:     reservoir{rng: rand.New(rand.NewSource(seed)), keep: make([]sample, 0, replayMax)},
	}
}

// add sums up one measured request.
func (run *serveRun) add(s sample) {
	if s.traced {
		run.windowOps[1]++
	} else {
		run.windowOps[0]++
	}
	switch {
	case errors.Is(s.err, errShed):
		run.shed++
	case s.err == nil:
		run.answered++
		if s.reply.Cached {
			run.cached++
		}
		run.latency.add(s.cpu)
		run.instr[s.req.machineIndex] += s.reply.Instructions
		run.cpu[s.req.machineIndex] += s.cpu
		if s.traced {
			run.tracedWall.add(s.wall)
			run.traced.add(s)
		}
		return
	}
	run.latency.addInf()
}

// traffic drives the server with the client in a closed loop for the
// warm-up and then the run's time. With a tracer it records a span for each
// request in the traced windows.
func traffic(c *http.Client, s *liveServer, o options, t *tally, tr *tracer) *serveRun {
	total := time.Duration(o.seconds) * time.Second
	window := total / trafficWindows
	start := time.Now().Add(serveWarmup)
	deadline := start.Add(total)
	run := newServeRun(o.seed)

	// marks[k] is the process CPU clock at the start of window k.
	var marks [trafficWindows + 1]time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= trafficWindows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
			marks[k] = processCPU()
		}
	}()
	g := newGenerator(o.seed, false)
	for op := int64(1); ; op++ {
		at := time.Now()
		if !at.Before(deadline) {
			break
		}
		warm := at.Before(start)
		traced := tr != nil && !warm && tracedWindow(int(at.Sub(start)/window))
		smp := s.post(c, g.next(), op, traced)
		t.add(smp.err)
		if traced {
			tr.record("serve.request", smp.op, 0, at, at.Add(smp.wall), 0, smp.reply.Instructions)
		}
		if !warm {
			run.add(smp)
		}
	}
	wg.Wait()
	run.procCPU = marks[trafficWindows] - marks[0]
	for k := 0; k < trafficWindows; k++ {
		i := 0
		if tracedWindow(k) {
			i = 1
		}
		run.windowCPU[i] += marks[k+1] - marks[k]
	}
	return run
}

// driveServer sets up a server, drives traffic at it and stops it. Half
// the set-ups run before the traffic and half after, so that one burst of
// host noise cannot move them all; the traffic uses the last one before.
func driveServer(o options, t *tally, tr *tracer) (*serveRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	c := newClient()
	defer c.CloseIdleConnections()
	var setups []float64
	setUp := func(n int, tr *tracer) (*liveServer, error) {
		var s *liveServer
		for i := 0; i < n; i++ {
			if s != nil {
				if err := stopServer(c, s); err != nil {
					return nil, err
				}
			}
			var d float64
			var err error
			if s, d, err = setUpServer(c, t, tr); err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		return s, nil
	}
	s, err := setUp((setupReps+1)/2, tr)
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	run := traffic(c, s, o, t, tr)
	run.gc = readGC().sub(gc0)
	if err := stopServer(c, s); err != nil {
		return nil, err
	}
	if s, err = setUp(setupReps/2, nil); err != nil {
		return nil, err
	}
	if s != nil {
		if err := stopServer(c, s); err != nil {
			return nil, err
		}
	}
	run.setupS = slowestButOne(setups)
	return run, nil
}

// runServeWorkload is the serve_hot workload.
func runServeWorkload(o options) (*outcome, error) {
	res := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	run, err := driveServer(o, &res.tally, tr)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		setServeEndToEnd(res, run)
		return res, nil
	}
	run.gc.report(res, int64(run.latency.n))
	perOp := func(k int) float64 { return run.windowCPU[k].Seconds() / float64(max(run.windowOps[k], 1)) }
	res.set("trace.overhead_pct", (perOp(1)/perOp(0)-1)*100)
	if err := setServeLayer(res, run, &res.tally, tr); err != nil {
		return nil, err
	}
	if err := layerSweep(o, res, tr); err != nil {
		return nil, err
	}
	return res, tr.write(o.traceOut)
}

// serveLayerProbe drives serve_hot traffic to measure the serve layer
// from a workload that sends no requests of its own.
func serveLayerProbe(o options, res *outcome, tr *tracer) error {
	run, err := driveServer(o, &res.tally, tr)
	if err != nil {
		return err
	}
	return setServeLayer(res, run, &res.tally, tr)
}

// setServeEndToEnd reports the serving numbers: each request's service
// time is the CPU time of the thread that handled it, and throughput is
// requests per CPU-second of the whole process, client included.
func setServeEndToEnd(res *outcome, run *serveRun) {
	for i, m := range serveMachines {
		res.set(m.name+"_mips", float64(run.instr[i])/run.cpu[i].Seconds()/1e6)
	}
	res.set("p50_ms", run.latency.percentile(50))
	res.set("p99_ms", run.latency.percentile(99))
	res.samples["p50_ms"] = run.latency.n
	res.samples["p99_ms"] = run.latency.n
	res.set("rps", float64(run.answered)/run.procCPU.Seconds())
	res.set("setup_s", run.setupS)
	res.samples["setup_s"] = setupReps
}

// setServeLayer reports the serve layer's numbers from the traced
// requests: the handler's CPU time, the same run made directly through
// RunImage, the difference between the two taken request by request, and
// the wall time the client saw.
func setServeLayer(res *outcome, run *serveRun, t *tally, tr *tracer) error {
	traced := run.traced.keep
	if len(traced) == 0 {
		return errors.New("serve: no traced request was answered")
	}
	runUS, err := replay(traced, t, tr)
	if err != nil {
		return err
	}
	var reqUS, directUS, overheadUS []float64
	for i, s := range traced {
		if math.IsNaN(runUS[i]) {
			continue
		}
		reqUS = append(reqUS, micros(s.cpu))
		directUS = append(directUS, runUS[i])
		overheadUS = append(overheadUS, micros(s.cpu)-runUS[i])
	}
	res.set("serve.request_p50_us", median(reqUS))
	res.set("serve.run_p50_us", median(directUS))
	res.set("serve.overhead_p50_us", median(overheadUS))
	res.set("serve.wall_p50_ms", run.tracedWall.percentile(50))
	res.set("serve.wall_p99_ms", run.tracedWall.percentile(99))
	res.set("serve.cache_hit_ratio", float64(run.cached)/float64(max(run.answered, 1)))
	res.set("serve.shed", float64(run.shed))
	res.samples["serve.request_p50_us"] = len(reqUS)
	res.samples["serve.wall_p99_ms"] = run.tracedWall.n
	return nil
}

// replay runs the requests again as direct RunImage calls with the options
// the server uses, one at a time on one thread, and returns each run's
// thread CPU time in microseconds, NaN where it failed. Run one at a time,
// RunImage has the CPU to itself: replayed concurrently, the runs used more
// CPU time than the server's whole handler did for the same requests.
func replay(samples []sample, t *tally, tr *tracer) ([]float64, error) {
	hot := map[string]*risc1.Image{}
	for _, req := range hotRequests() {
		img, err := risc1.CompileToImage(req.body.Source, req.target)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", req.hotKey, err)
		}
		hot[req.hotKey] = img
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.NaN()
		t0 := now()
		info, err := risc1.RunImage(context.Background(), hot[s.req.hotKey], risc1.RunOptions{
			MaxCycles: risc1.DefaultMaxCycles, Cores: s.req.body.Cores,
		})
		t1 := now()
		if err == nil && info.Console != s.req.want {
			err = fmt.Errorf("replay %s: console %q, want %q", s.req.hotKey, info.Console, s.req.want)
		}
		t.add(err)
		if err != nil {
			continue
		}
		tr.record("risc1.RunImage", s.op, 0, t0.wall, t1.wall, t1.cpu-t0.cpu, info.Instructions)
		out[i] = micros(t1.cpu - t0.cpu)
	}
	return out, nil
}
