package main

// The serve workloads: an `engage serve` child process with
// default flags over the bundled library, driven open loop over
// loopback by at most nproc keep-alive connections from this process.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type reqKind int

const (
	kindWarm reqKind = iota
	kindCold
	kindUnsat
	kindDeploy
	kindApply
	numKinds
)

var kindNames = [numKinds]string{"warm", "cold", "unsat", "deploy", "apply"}

// traffic is a request mix at a fixed arrival rate.
type traffic struct {
	name  string
	rate  float64           // requests per second
	share [numKinds]float64 // draw probability per kind
}

// warmTraffic is the serve-warm workload and mixedTraffic the
// serve-mixed one. The warm mix also fills the pool before every
// window.
var (
	mixedTraffic = traffic{name: "mixed", rate: 300, share: [numKinds]float64{0.70, 0.15, 0.05, 0.05, 0.05}}
	warmTraffic  = traffic{name: "warm", rate: 500, share: [numKinds]float64{1, 0, 0, 0, 0}}
)

// plannedReq is one request of the schedule, made before the window
// opens so the generator only sends.
type plannedReq struct {
	kind reqKind
	idx  int // configure body (warm, cold, deploy) or apply partial
	path string
	body []byte
}

// planRequests draws n requests from the mix with the seed. Warm and
// deploy requests cycle the configure bodies; cold requests carry a
// hostname no other request uses; applies go round-robin over the
// stacks and alternate the two apply partials per stack.
func planRequests(tr traffic, seed int64, n int, sb serveBodies) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]plannedReq, n)
	var counts [numKinds]int
	for i := range plan {
		u, acc, k := rng.Float64(), 0.0, numKinds-1
		for j := reqKind(0); j < numKinds; j++ {
			if acc += tr.share[j]; u < acc {
				k = j
				break
			}
		}
		c := counts[k]
		counts[k]++
		nb := len(sb.configure)
		switch k {
		case kindWarm:
			plan[i] = plannedReq{kind: k, idx: c % nb, path: "/v1/configure", body: sb.configure[c%nb]}
		case kindCold:
			host := fmt.Sprintf("cold-%d-%d", seed, c)
			plan[i] = plannedReq{kind: k, idx: c % nb, path: "/v1/configure", body: coldBody(c%nb, host)}
		case kindUnsat:
			plan[i] = plannedReq{kind: k, path: "/v1/configure", body: sb.unsat}
		case kindDeploy:
			plan[i] = plannedReq{kind: k, idx: c % nb, path: "/v1/deploy", body: sb.configure[c%nb]}
		case kindApply:
			stack := c % stackNames
			which := (c / stackNames) % len(sb.apply)
			plan[i] = plannedReq{kind: k, idx: which, path: "/v1/stacks/s" + strconv.Itoa(stack), body: sb.apply[which]}
		}
	}
	return plan
}

// server is a running `engage serve` child.
type server struct {
	cmd  *exec.Cmd
	base string
	pid  string
	out  sync.WaitGroup // stdout drain

	stopOnce sync.Once
	stopErr  error
}

// startServer execs `engage serve` on a free loopback port and returns
// once GET /v1/status answers 200, with the time that took.
func startServer(engage string, hc *http.Client) (*server, time.Duration, error) {
	cmd := exec.Command(engage, "serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// A server outlives nothing: if this process dies mid-run, so does it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s serve: %v", engage, err)
	}
	s := &server{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid)}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			s.base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	s.out.Add(1)
	go func() {
		defer s.out.Done()
		_, _ = io.Copy(io.Discard, stdout) // the drain messages on stop
	}()
	if s.base == "" {
		s.stop()
		return nil, 0, fmt.Errorf("engage serve exited before listening")
	}
	for {
		resp, err := hc.Get(s.base + "/v1/status")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("engage serve not ready after 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, which makes the server drain and exit, and waits
// for it; a server still up after 20 s is killed. Only the first call
// signals; later ones return its result.
func (s *server) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.terminate() })
	return s.stopErr
}

func (s *server) terminate() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		s.out.Wait()
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("engage serve did not stop on SIGTERM")
	}
}

// scrape is the server's own view at one instant.
type scrape struct {
	pool struct {
		Idle   int   `json:"idle"`
		Keys   int   `json:"keys"`
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	counters   map[string]int64
	histograms map[string]struct{ Count, Sum int64 }
	cpu        time.Duration
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) scrape(hc *http.Client) (*scrape, error) {
	var sc scrape
	var status struct {
		Pool json.RawMessage `json:"pool"`
	}
	if err := getJSON(hc, s.base+"/v1/status", &status); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(status.Pool, &sc.pool); err != nil {
		return nil, err
	}
	var m struct {
		Counters   map[string]int64                      `json:"counters"`
		Histograms map[string]struct{ Count, Sum int64 } `json:"histograms"`
	}
	if err := getJSON(hc, s.base+"/metrics", &m); err != nil {
		return nil, err
	}
	sc.counters, sc.histograms = m.Counters, m.Histograms
	cpu, err := procCPU(s.pid)
	if err != nil {
		return nil, err
	}
	sc.cpu = cpu
	return &sc, nil
}

// outcome is one request's result.
type outcome struct {
	kind    reqKind
	latency time.Duration // due time to the end of the response body
	late    time.Duration // send time minus due time
	err     error
	stack   int   // applies: stack index
	version int64 // applies: store version granted
}

var errOverload = errors.New("request not sent: too many requests in flight")

// maxInFlight bounds the goroutines of an open loop; reaching it means
// the server has stalled, and the run is marked invalid.
const maxInFlight = 512

// drive sends plan open loop at rate from start, one goroutine per
// request, and returns once every response has been read.
func drive(hc *http.Client, base string, plan []plannedReq, rate float64, start time.Time, want *servePins) []outcome {
	period := time.Duration(float64(time.Second) / rate)
	out := make([]outcome, len(plan))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i := range plan {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			out[i] = outcome{kind: plan[i].kind, err: errOverload, latency: time.Since(due)}
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = send(hc, base, plan[i], due, want)
		}(i, due)
	}
	wg.Wait()
	return out
}

// send makes one request and checks its answer against the recorded one.
func send(hc *http.Client, base string, pr plannedReq, due time.Time, want *servePins) outcome {
	o := outcome{kind: pr.kind, late: time.Since(due)}
	resp, err := hc.Post(base+pr.path, "application/json", bytes.NewReader(pr.body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.latency = time.Since(due)
	if err != nil {
		o.err = err
		return o
	}
	o.stack, o.version, o.err = checkAnswer(pr, resp.StatusCode, data, want)
	return o
}

// checkAnswer compares one response with the known answer for its
// request. Applies return the stack and the store version granted.
func checkAnswer(pr plannedReq, status int, data []byte, want *servePins) (stack int, version int64, err error) {
	var r struct {
		Instances int   `json:"instances"`
		ElapsedNs int64 `json:"elapsed_virtual_ns"`
		Version   int64 `json:"version"`
		Error     struct {
			Code string   `json:"code"`
			Core []string `json:"core"`
		} `json:"error"`
	}
	if uerr := json.Unmarshal(data, &r); uerr != nil {
		return 0, 0, fmt.Errorf("%s %s: undecodable response: %v", kindNames[pr.kind], pr.path, uerr)
	}
	wantStatus := http.StatusOK
	if pr.kind == kindUnsat {
		wantStatus = http.StatusUnprocessableEntity
	}
	if status != wantStatus {
		return 0, 0, fmt.Errorf("%s %s: status %d (%s), want %d", kindNames[pr.kind], pr.path, status, r.Error.Code, wantStatus)
	}
	switch pr.kind {
	case kindWarm, kindCold:
		if r.Instances != want.ConfigureInstances[pr.idx] {
			return 0, 0, fmt.Errorf("configure body %d: %d instances, recorded %d", pr.idx, r.Instances, want.ConfigureInstances[pr.idx])
		}
	case kindUnsat:
		if r.Error.Code != "unsat" || !sameSet(r.Error.Core, want.UnsatCore) {
			return 0, 0, fmt.Errorf("unsat: code %q core %q, recorded %q", r.Error.Code, r.Error.Core, want.UnsatCore)
		}
	case kindDeploy:
		if r.ElapsedNs != want.DeployVirtualNs[pr.idx] {
			return 0, 0, fmt.Errorf("deploy body %d: elapsed_virtual_ns %d, recorded %d", pr.idx, r.ElapsedNs, want.DeployVirtualNs[pr.idx])
		}
	case kindApply:
		if r.Instances != want.ApplyInstances[pr.idx] {
			return 0, 0, fmt.Errorf("apply %s: %d instances, recorded %d", pr.path, r.Instances, want.ApplyInstances[pr.idx])
		}
		n, _ := strconv.Atoi(strings.TrimPrefix(pr.path, "/v1/stacks/s"))
		return n, r.Version, nil
	}
	return 0, 0, nil
}

func sameSet(a, b []string) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// checkVersions fails every apply whose store version does not continue
// its stack's sequence: the versions granted to one stack, in order,
// must be 1, 2, 3, … with none skipped or granted twice.
func checkVersions(outs []outcome) {
	byStack := map[int][]*outcome{}
	for i := range outs {
		if o := &outs[i]; o.kind == kindApply && o.err == nil {
			byStack[o.stack] = append(byStack[o.stack], o)
		}
	}
	for stack, granted := range byStack {
		sort.Slice(granted, func(i, j int) bool { return granted[i].version < granted[j].version })
		for i, o := range granted {
			if o.version != int64(i+1) {
				o.err = fmt.Errorf("stack s%d: apply %d of the run got store version %d", stack, i+1, o.version)
			}
		}
	}
}

// session is one measured serve run: set-ups, a warm-up, and a window
// of open-loop traffic, with the server scraped at both ends.
type session struct {
	setups      []float64 // seconds
	warmup      []outcome // checked like the window's, not timed
	outs        []outcome
	before      *scrape
	after       *scrape
	clientCPU   time.Duration
	wall        time.Duration
	serverHWMkB int64
}

const (
	// serveSetupReps is how many set-ups a session times before its
	// window and again after it; setup_s is the median of all of them.
	// The set-up time of a process start drifts with the host's state
	// over seconds, so the two halves sample two moments of the run.
	serveSetupReps = 20
	warmupTime     = time.Second
)

func newClient() *http.Client {
	conns := runtime.NumCPU()
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// timeSetups starts and stops the server n times and appends each
// start's set-up time in seconds to into.
func timeSetups(engage string, hc *http.Client, n int, into []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		s, d, err := startServer(engage, hc)
		if err != nil {
			return into, err
		}
		into = append(into, d.Seconds())
		hc.CloseIdleConnections()
		if err := s.stop(); err != nil {
			return into, err
		}
	}
	return into, nil
}

// runSession times serveSetupReps set-ups, starts the measured server,
// warms the pool, drives tr for window, stops the server and times
// serveSetupReps more set-ups.
func runSession(env *runEnv, tr traffic, window time.Duration) (*session, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	sb := makeServeBodies()
	ss := &session{}
	var err error
	if ss.setups, err = timeSetups(env.engage, hc, serveSetupReps, nil); err != nil {
		return nil, err
	}
	srv, d, err := startServer(env.engage, hc)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ss.setups = append(ss.setups, d.Seconds())

	want, err := env.serveAnswers(hc, srv.base, sb)
	if err != nil {
		return nil, err
	}
	warm := planRequests(warmTraffic, env.seed, int(warmupTime.Seconds()*tr.rate), sb)
	ss.warmup = drive(hc, srv.base, warm, tr.rate, time.Now(), want)

	plan := planRequests(tr, env.seed, int(window.Seconds()*tr.rate), sb)
	if ss.before, err = srv.scrape(hc); err != nil {
		return nil, err
	}
	c0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(10 * time.Millisecond)
	ss.outs = drive(hc, srv.base, plan, tr.rate, start, want)
	ss.wall = time.Since(start)
	c1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	ss.clientCPU = c1 - c0
	if ss.after, err = srv.scrape(hc); err != nil {
		return nil, err
	}
	if ss.serverHWMkB, err = procStatusKB(srv.pid, "VmHWM"); err != nil {
		return nil, err
	}
	checkVersions(ss.outs)
	hc.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	ss.setups, err = timeSetups(env.engage, hc, serveSetupReps, ss.setups)
	return ss, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the due-to-end latency of every request in ms,
// failed ones included, optionally only of some kinds.
func (ss *session) latencies(kinds ...reqKind) []float64 {
	var out []float64
	for _, o := range ss.outs {
		if len(kinds) == 0 || slices.Contains(kinds, o.kind) {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

// invalid says why the window measured the client rather than the
// server: the generator fell behind its schedule or the client used a
// whole core.
func (ss *session) invalid(tr traffic) []string {
	var why []string
	var late []float64
	overload := 0
	for _, o := range ss.outs {
		late = append(late, ms(o.late))
		if errors.Is(o.err, errOverload) {
			overload++
		}
	}
	period := 1000 / tr.rate
	if p := percentile(late, 99); p > 10*period {
		why = append(why, fmt.Sprintf("generator fell behind: p99 send lateness %.2f ms is over ten request periods", p))
	}
	if overload > 0 {
		why = append(why, fmt.Sprintf("%d requests not sent: %d already in flight", overload, maxInFlight))
	}
	if share := float64(ss.clientCPU) / float64(ss.wall); share > 0.9 {
		why = append(why, fmt.Sprintf("client saturated its CPU: %.0f%% of a core", 100*share))
	}
	return why
}

// tally counts every checked request of the session, the warm-up's
// included, as attempted, and each wrong or missing answer as failed.
func (ss *session) tally(res *result) {
	for _, outs := range [][]outcome{ss.warmup, ss.outs} {
		for _, o := range outs {
			res.attempted++
			if o.err != nil {
				res.fail(o.err)
			}
		}
	}
}

// runServe is the untraced serve run.
func runServe(env *runEnv, tr traffic) (*result, error) {
	ss, err := runSession(env, tr, env.window)
	if err != nil {
		return nil, err
	}
	res := &result{invalid: ss.invalid(tr)}
	ss.tally(res)
	lat := ss.latencies()
	conf := ss.latencies(kindWarm, kindCold, kindUnsat)
	res.metrics = map[string]float64{
		"setup_s":        median(ss.setups),
		"latency_p50_ms": percentile(lat, 50),
		"cpu_ms_per_req": ms(ss.after.cpu-ss.before.cpu) / float64(len(ss.outs)),
		"rss_mb":         float64(ss.serverHWMkB) / 1024,
		"configure_s":    percentile(conf, 50) / 1000,
	}
	res.note("client.p99_ms", percentile(lat, 99))
	res.note("client.samples", len(lat))
	byKind := map[string]any{}
	for k := reqKind(0); k < numKinds; k++ {
		if l := ss.latencies(k); len(l) > 0 {
			byKind[kindNames[k]] = map[string]float64{
				"n": float64(len(l)), "p50_ms": percentile(l, 50), "p90_ms": percentile(l, 90), "p99_ms": percentile(l, 99),
			}
		}
	}
	res.note("latency_by_kind", byKind)
	return res, nil
}

// serveAnswers returns the known answers for the serve bodies after
// checking the body set against its pinned digest. Recording asks the
// server once per body.
func (env *runEnv) serveAnswers(hc *http.Client, base string, sb serveBodies) (*servePins, error) {
	sum := sb.digest()
	if !env.record {
		if env.pins.Serve.SHA256 != sum {
			return nil, fmt.Errorf("serve request bodies changed: sha256 %s, pinned %q", sum, env.pins.Serve.SHA256)
		}
		return &env.pins.Serve, nil
	}
	p := servePins{SHA256: sum}
	post := func(path string, b []byte, v any) (int, error) {
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
	}
	for _, b := range sb.configure {
		var r struct{ Instances int }
		if code, err := post("/v1/configure", b, &r); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("recording configure: status %d, %v", code, err)
		}
		p.ConfigureInstances = append(p.ConfigureInstances, r.Instances)
		var d struct {
			ElapsedNs int64 `json:"elapsed_virtual_ns"`
		}
		if code, err := post("/v1/deploy", b, &d); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("recording deploy: status %d, %v", code, err)
		}
		p.DeployVirtualNs = append(p.DeployVirtualNs, d.ElapsedNs)
	}
	var u struct {
		Error struct{ Core []string }
	}
	if code, err := post("/v1/configure", sb.unsat, &u); err != nil || code != http.StatusUnprocessableEntity {
		return nil, fmt.Errorf("recording unsat: status %d, %v", code, err)
	}
	p.UnsatCore = u.Error.Core
	for _, b := range sb.apply {
		var r struct{ Instances int }
		if code, err := post("/v1/stacks/record", b, &r); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("recording apply: status %d, %v", code, err)
		}
		p.ApplyInstances = append(p.ApplyInstances, r.Instances)
	}
	env.pins.Serve = p
	return &p, nil
}
