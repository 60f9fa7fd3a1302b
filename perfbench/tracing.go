package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/objstore"
	"repro/internal/simcache"
)

// This file is the benchmark's tracing: spans recorded from the
// benchmark's own code around each call into a layer, a simcache.Store
// wrapper that times and sizes every store call the sweep's job and
// fold paths make, and an HTTP middleware around objstore's handler.
// Spans stay in memory and are reduced when the sample ends.

// span is one timed call into a layer. parent is the index of the span
// that made the call (-1 for the root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer records spans and store counters. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	gets, getHits, puts int
	getBytes, putBytes  int64
	// execDur holds, per job span name, the durations of the jobs that
	// executed (store misses) rather than being served from the store.
	execDur map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// executed records span id, a job span, as an executed job.
func (t *tracer) executed(name string, id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.execDur == nil {
		t.execDur = map[string][]float64{}
	}
	s := t.spans[id]
	t.execDur[name] = append(t.execDur[name], (s.end - s.start).Seconds())
}

// layerTimes reduces the spans per name: how many, their summed
// duration, their summed self time (duration minus the part covered by
// child spans) and every duration, for percentiles.
type layerTimes struct {
	count     int
	total     float64
	self      float64
	durations []float64
}

func (t *tracer) reduce() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTimes{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := (s.end - s.start).Seconds()
		lt.count++
		lt.total += d
		lt.self += d - child[i].Seconds()
		lt.durations = append(lt.durations, d)
	}
	return out
}

// tracedStore times every call a job or a fold makes into the result
// store. Entry sizes are measured by re-encoding the value outside the
// timed call, under a "tracing" span, so the sizing cost is attributed
// to the tracer rather than to the layer that called the store.
type tracedStore struct {
	inner  simcache.Store
	tr     *tracer
	parent int
}

func (s tracedStore) Get(key string, v any) (bool, error) {
	id := s.tr.begin("simcache.get", s.parent)
	hit, err := s.inner.Get(key, v)
	s.tr.end(id)
	var n int
	if hit {
		id = s.tr.begin("tracing", s.parent)
		if b, err := simcache.EncodeEntry(key, v); err == nil {
			n = len(b)
		}
		s.tr.end(id)
	}
	s.tr.mu.Lock()
	s.tr.gets++
	if hit {
		s.tr.getHits++
		s.tr.getBytes += int64(n)
	}
	s.tr.mu.Unlock()
	return hit, err
}

func (s tracedStore) Put(key string, v any) error {
	id := s.tr.begin("tracing", s.parent)
	b, _ := simcache.EncodeEntry(key, v)
	s.tr.end(id)
	id = s.tr.begin("simcache.put", s.parent)
	err := s.inner.Put(key, v)
	s.tr.end(id)
	s.tr.mu.Lock()
	s.tr.puts++
	s.tr.putBytes += int64(len(b))
	s.tr.mu.Unlock()
	return err
}

// RecordCost is the measured-cost sidecar append that follows every
// put; it is timed as part of the put layer.
func (s tracedStore) RecordCost(key string, seconds float64) {
	id := s.tr.begin("simcache.put", s.parent)
	s.inner.RecordCost(key, seconds)
	s.tr.end(id)
}

// Routes the objstore middleware tells apart. Every other request
// (cost uploads, status) is counted as "other".
var routeNames = []string{"claim", "complete", "heartbeat", "entry_get", "entry_put", "register", "figures"}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/entry/"):
		return "entry_get"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/entry/"):
		return "entry_put"
	case p == "/v1/register":
		return "register"
	case strings.HasSuffix(p, "/claim"):
		return "claim"
	case strings.HasSuffix(p, "/complete"):
		return "complete"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/figures"):
		return "figures"
	}
	return "other"
}

// httpStats is the middleware around objstore.Server.Handler. It always
// counts requests and status classes (they feed attempted/failed);
// with detail it also records per-route latencies, bytes and claim
// outcomes.
type httpStats struct {
	detail bool

	mu                   sync.Mutex
	requests, s4xx, s5xx int
	bytesIn, bytesOut    int64
	latencyMS            map[string][]float64
	claims, claimsEmpty  int
}

func newHTTPStats(detail bool) *httpStats {
	return &httpStats{detail: detail, latencyMS: map[string][]float64{}}
}

type recorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	body   *bytes.Buffer // kept for claim responses only
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.body != nil {
		r.body.Write(p)
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (h *httpStats) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := ""
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		var start time.Time
		if h.detail {
			route = routeOf(r)
			if route == "claim" {
				rec.body = &bytes.Buffer{}
			}
			start = time.Now()
		}
		next.ServeHTTP(rec, r)
		var ms float64
		if h.detail {
			ms = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		h.requests++
		switch {
		case rec.status >= 500:
			h.s5xx++
		case rec.status >= 400:
			h.s4xx++
		}
		if !h.detail {
			return
		}
		h.latencyMS[route] = append(h.latencyMS[route], ms)
		if r.ContentLength > 0 {
			h.bytesIn += r.ContentLength
		}
		h.bytesOut += rec.bytes
		if route == "claim" {
			h.claims++
			var resp objstore.ClaimResponse
			if json.Unmarshal(rec.body.Bytes(), &resp) != nil || resp.Status != objstore.ClaimJob {
				h.claimsEmpty++
			}
		}
	})
}

// snapshot returns the request count and the failed (5xx) count.
func (h *httpStats) snapshot() (requests, failed int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.requests, h.s5xx
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule, or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
