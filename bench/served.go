package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"e9patch"
	"e9patch/internal/cluster"
	"e9patch/internal/server"
)

// rewriteQuery is what every request asks for: the paper's application
// A1 with empty trampolines, through the service's legacy matcher.
const rewriteQuery = "match=jump&action=empty"

const (
	servedNodes = 2
	// servedMinRequests is the floor on timed requests: enough that the
	// 10 % plan-hit class still supports a p90 and the whole a p99.
	servedMinRequests = 1200
	// traceBlocks is how many schedule blocks the traced pass sends.
	traceBlocks = 15
)

// The classes a response can be counted as, from its headers.
const (
	classHit = iota
	classForwarded
	classPlan
	classCold
	classOther // coalesced or peer-plan: legitimate, but not a tier this mix aims at
	numClasses
)

var classNames = [numClasses]string{"result_hit", "forwarded", "plan_hit", "cold", "other"}

// classify maps the observed response headers to a class. A response
// that carries X-E9-Node was relayed from the key's owner, whatever
// tier the owner served it from.
func classify(cache, node string) int {
	switch {
	case node != "":
		return classForwarded
	case cache == "hit":
		return classHit
	case cache == "plan":
		return classPlan
	case cache == "miss":
		return classCold
	}
	return classOther
}

// swapHandler lets a listener exist (fixing its URL) before the node
// behind it does: a static cluster config needs every peer URL up front.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// servedWorkload is served-mix: two e9served nodes in one static
// cluster, in this process, and two closed-loop clients draining one
// seeded schedule.
type servedWorkload struct {
	corpus *servedCorpus
	sched  *schedule
	srvs   []*server.Server
	https  []*httptest.Server
	urls   []string
	client *http.Client

	mu sync.Mutex
	// keySHA is the first response's SHA-256 per repeated binary: every
	// later response for it, from whatever tier or node, must match.
	keySHA map[string]string
	// counters are the /metrics deltas across the last measure.
	rejected429, coalescedSeen int
	counters                   map[string]float64
}

// response is one completed POST.
type response struct {
	status      int
	cache, node string
	stats       struct{ Total, Patched int }
	body        []byte
	ms          float64
}

func (w *servedWorkload) setup(seed int64) error {
	w.close()
	corpus, err := buildServedCorpus(seed)
	if err != nil {
		return err
	}
	w.corpus, w.sched, w.keySHA = corpus, newSchedule(seed), map[string]string{}

	// Size the result cache in outputs, from one real output.
	res, err := e9patch.Rewrite(corpus.hot[0], directConfig())
	if err != nil {
		return err
	}
	cacheBytes := int64(resultCacheOutputs*len(res.Output) + len(res.Output)/2)

	swaps := make([]*swapHandler, servedNodes)
	w.https, w.urls = make([]*httptest.Server, servedNodes), make([]string, servedNodes)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		w.https[i] = httptest.NewServer(swaps[i])
		w.urls[i] = w.https[i].URL
	}
	w.srvs = make([]*server.Server, servedNodes)
	for i := range w.srvs {
		w.srvs[i] = server.New(server.Config{
			CacheBytes: cacheBytes,
			Cluster:    cluster.Config{Self: w.urls[i], Peers: w.urls},
			Logf:       func(string, ...any) {},
		})
		swaps[i].set(w.srvs[i].Handler())
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedNodes}}

	// Warm-up pass, in the order that leaves the caches in their steady
	// state: the ring's plans banked, then enough cold fills to push the
	// ring's results out again, then the hot set on top.
	warm := func(req request) error {
		s, err := w.send(req, nil, 0)
		if err == nil && !s.ok {
			err = fmt.Errorf("warm-up: %s", s.why)
		}
		return err
	}
	for i := range corpus.ring {
		if err := warm(request{kind: reqPlan, bin: i}); err != nil {
			return err
		}
	}
	for i := 0; i < 2*servedNodes*resultCacheOutputs; i++ {
		if err := warm(request{kind: reqCold, bin: i % coldBases, stamp: 1<<40 + uint64(i)}); err != nil {
			return err
		}
	}
	for i := range corpus.hot {
		if err := warm(request{kind: reqHit, bin: i}); err != nil {
			return err
		}
	}
	return nil
}

// directConfig is the e9patch configuration the service derives from
// rewriteQuery.
func directConfig() e9patch.Config {
	sel, err := e9patch.SelectMatch("jump")
	if err != nil {
		panic(err) // a constant expression
	}
	return e9patch.Config{Select: sel, Granularity: 1}
}

// post sends body to node and reads the whole response; the clock runs
// from the request leaving to the last body byte arriving.
func (w *servedWorkload) post(node int, body []byte) (*response, error) {
	req, err := http.NewRequest(http.MethodPost, w.urls[node]+"/v1/rewrite?"+rewriteQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	r := &response{status: resp.StatusCode, body: out, ms: msOf(time.Since(start))}
	if err != nil {
		return nil, err
	}
	r.cache, r.node = resp.Header.Get("X-E9-Cache"), resp.Header.Get("X-E9-Node")
	if r.status == http.StatusOK {
		if err := json.Unmarshal([]byte(resp.Header.Get("X-E9-Stats")), &r.stats); err != nil {
			return nil, fmt.Errorf("X-E9-Stats: %w", err)
		}
	}
	return r, nil
}

// send performs one scheduled request and checks the response. The
// target is the key's owner, or for a forwarded request the other node.
func (w *servedWorkload) send(req request, tr *tracer, op int) (opSample, error) {
	body := w.corpus.body(req)
	owner, err := w.srvs[0].KeyOwner(body, rewriteQuery)
	if err != nil {
		return opSample{}, err
	}
	node := 0
	for i, u := range w.urls {
		if u == owner {
			node = i
		}
	}
	if req.kind == reqForwarded {
		node = (node + 1) % servedNodes
	}

	id := tr.begin("request", -1, op)
	r, err := w.post(node, body)
	s := opSample{class: classOther, inBytes: len(body)}
	if err != nil {
		tr.end(id)
		s.why = err.Error()
		return s, nil
	}
	s.ms = r.ms
	if r.status != http.StatusOK {
		tr.endWith(id, map[string]any{"status": r.status})
		if r.status == http.StatusTooManyRequests {
			w.mu.Lock()
			w.rejected429++
			w.mu.Unlock()
		}
		s.why = fmt.Sprintf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
		return s, nil
	}
	s.class = classify(r.cache, r.node)
	tr.endWith(id, map[string]any{"class": classNames[s.class], "sent_to": node, "served_by": r.node, "bytes": len(r.body)})

	if r.cache == "coalesced" {
		w.mu.Lock()
		w.coalescedSeen++
		w.mu.Unlock()
	}
	// A hot or ring binary comes back many times, from every tier and
	// both nodes: each response must be the first one again. Only a first
	// (for a cold binary, the only) response needs checking on its own.
	key := ""
	switch req.kind {
	case reqHit, reqForwarded:
		key = fmt.Sprintf("hot/%d", req.bin)
	case reqPlan:
		key = fmt.Sprintf("ring/%d", req.bin)
	}
	first := true
	if key != "" {
		sum := shaHex(r.body)
		w.mu.Lock()
		prev, seen := w.keySHA[key]
		if !seen {
			w.keySHA[key] = sum
		}
		w.mu.Unlock()
		if first = !seen; seen && prev != sum {
			s.why = fmt.Sprintf("%s: the %s response differs from the first one", key, classNames[s.class])
			return s, nil
		}
	}
	if first {
		if err := checkLayout(body, r.body); err != nil {
			s.why = err.Error()
			return s, nil
		}
	}
	s.ok = true
	s.outBytes, s.sites, s.patched = len(r.body), r.stats.Total, r.stats.Patched
	return s, nil
}

// drive runs the closed loop: one client per core, each taking the next
// scheduled request only when its previous one has completed.
func (w *servedWorkload) drive(tr *tracer, more func(issued int) bool) ([]opSample, error) {
	var (
		mu     sync.Mutex
		ops    []opSample
		issued int
		first  error
		wg     sync.WaitGroup
	)
	clients := min(runtime.GOMAXPROCS(0), 2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if first != nil || !more(issued) {
					mu.Unlock()
					return
				}
				req, op := w.sched.next(), issued
				issued++
				mu.Unlock()
				s, err := w.send(req, tr, op)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				ops = append(ops, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, first
}

var counterRE = regexp.MustCompile(`(?m)^(e9served_[a-z_]+_total) (\d+)$`)

// scrape sums the label-free counters of every node's /metrics.
func (w *servedWorkload) scrape() (map[string]float64, error) {
	sums := map[string]float64{}
	for _, u := range w.urls {
		resp, err := w.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, m := range counterRE.FindAllSubmatch(text, -1) {
			v, _ := strconv.ParseFloat(string(m[2]), 64)
			sums[string(m[1])] += v
		}
	}
	return sums, nil
}

func (w *servedWorkload) measure(seconds float64) (*measurement, error) {
	before, err := w.scrape()
	if err != nil {
		return nil, err
	}
	w.rejected429, w.coalescedSeen = 0, 0
	m, err := timedSection(func(m *measurement) error {
		start := time.Now()
		ops, err := w.drive(nil, func(issued int) bool {
			return issued < servedMinRequests || time.Since(start).Seconds() < seconds
		})
		m.ops = ops
		return err
	})
	if err != nil {
		return nil, err
	}
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}
	w.counters = map[string]float64{}
	for k, v := range after {
		w.counters[k] = v - before[k]
	}
	// What the clients saw must be what the nodes counted.
	if got := w.counters["e9served_queue_full_total"]; got != float64(w.rejected429) {
		return nil, fmt.Errorf("clients saw %d 429s, /metrics counted %v", w.rejected429, got)
	}
	if got := w.counters["e9served_coalesced_total"]; got != float64(w.coalescedSeen) {
		return nil, fmt.Errorf("clients saw %d coalesced responses, /metrics counted %v", w.coalescedSeen, got)
	}
	return m, nil
}

func (w *servedWorkload) verify() error { return nil }

func (w *servedWorkload) info() []string {
	lines := []string{fmt.Sprintf("%d hot, %d ring and %d cold-base binaries of %d B; per-node result cache sized for %d outputs",
		hotSetSize, planRingSize, coldBases, len(w.corpus.hot[0]), resultCacheOutputs)}
	for i, bin := range w.corpus.hot {
		lines = append(lines, fmt.Sprintf("hot/%d: input sha256 %s, output sha256 %s", i, shaHex(bin), w.keySHA[fmt.Sprintf("hot/%d", i)]))
	}
	return lines
}

func (w *servedWorkload) close() {
	for _, h := range w.https {
		h.Close()
	}
	for _, s := range w.srvs {
		s.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.https, w.srvs, w.client = nil, nil, nil
}

// directReps is how often each direct (no service) call is repeated for
// the overhead metrics.
const directReps = 3

func (w *servedWorkload) trace(tr *tracer, cal *calib, m *measurement) (map[string]float64, error) {
	// What the nodes counted during the timed section, for the trace file.
	tr.endWith(tr.begin("server.metrics_delta", -1, -1), map[string]any{"counters": w.counters})

	// The traced pass: the same loop with a span per request.
	cal.probe()
	traced, err := w.drive(tr, func(issued int) bool { return issued < traceBlocks*blockSize })
	if err != nil {
		return nil, err
	}
	cal.probe()

	// The work behind a cold and a plan-hit request, called directly.
	cfg := directConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	var directRewrite, directApply []float64
	for rep := 0; rep < directReps; rep++ {
		for i := 0; i < coldBases; i++ {
			in := w.corpus.cold[i]
			ms, err := opTimer(func() error { _, err := e9patch.Rewrite(in, cfg); return err })
			if err != nil {
				return nil, err
			}
			directRewrite = append(directRewrite, ms)

			in = w.corpus.ring[i]
			p, err := e9patch.Plan(in, cfg)
			if err != nil {
				return nil, err
			}
			var res *e9patch.Result
			ms, err = opTimer(func() (err error) { res, err = e9patch.ApplyTrusted(in, p); return })
			if err != nil {
				return nil, err
			}
			if want := w.keySHA[fmt.Sprintf("ring/%d", i)]; shaHex(res.Output) != want {
				return nil, fmt.Errorf("ring/%d: the service's response differs from a direct Plan+ApplyTrusted", i)
			}
			directApply = append(directApply, ms)
		}
	}
	cal.probe()

	ring := cluster.NewRing(w.urls, 0)
	const ownerCalls = 20000
	start := time.Now()
	for i := 0; i < ownerCalls; i++ {
		ring.Owner(strconv.Itoa(i))
	}
	ownerNs := float64(time.Since(start)) / ownerCalls

	got := map[string]float64{
		"server.rejected":  float64(w.rejected429),
		"server.coalesced": float64(w.coalescedSeen),
		"cluster.owner_ns": ownerNs,
	}
	all := okMs(m.ops, -1)
	p50 := map[int]float64{}
	for c, name := range classNames[:classOther] {
		ms := okMs(m.ops, c)
		p50[c] = median(ms)
		p90, err := quantile(ms, 0.9)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		got[name+"_ms_p50"] = p50[c]
		got["server."+name+"_ms_p90"] = p90
		got["server."+name+"_share_pct"] = pct(float64(len(ms)), float64(len(all)))
	}
	if got["server.op_ms_p99"], err = quantile(all, 0.99); err != nil {
		return nil, err
	}
	got["server.cold_overhead_ms"] = p50[classCold] - median(directRewrite)
	got["server.plan_hit_overhead_ms"] = p50[classPlan] - median(directApply)
	got["cluster.hop_ms"] = p50[classForwarded] - p50[classHit]
	return got, harnessMetrics(got, cal, m, median(okMs(traced, -1)), true)
}
