package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<request id>:<span id>" from a caller's span to the
// layer it calls.
const spanHeader = "X-Bench-Span"

// span is one timed pass through a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) ref() string { return strconv.FormatInt(s.Req, 10) + ":" + strconv.FormatUint(s.ID, 10) }

func (s *span) dur() int64 { return s.End - s.Start }

func parseRef(h string) (req int64, id uint64, ok bool) {
	a, b, found := strings.Cut(h, ":")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return req, id, err1 == nil && err2 == nil
}

// tracer records spans from the benchmark's own wrappers around each
// layer's public entry points, keeping them in memory until the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, req int64, parent uint64) *span {
	return &span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))}
}

func (t *tracer) end(s *span) {
	s.End = int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

type spanKey struct{}

// handler wraps a layer's HTTP surface: a request carrying spanHeader
// gets a span named after the layer (".reload" appended for reloads),
// linked to the caller's span and put in the request context for the
// layer's own upstream calls.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := parseRef(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		n := name
		if r.URL.Path == "/admin/reload" {
			n += ".reload"
		}
		s := t.begin(n, req, parent)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s)))
		t.end(s)
	})
}

// transport wraps the gateway's upstream transport: each attempt made
// on behalf of a traced request gets a "gateway.attempt" span, from the
// round trip's start until its response body is closed, and passes its
// id on in spanHeader.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		parent, ok := r.Context().Value(spanKey{}).(*span)
		if !ok {
			return base.RoundTrip(r)
		}
		s := t.begin("gateway.attempt", parent.Req, parent.ID)
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, s.ref())
		resp, err := base.RoundTrip(r)
		if err != nil {
			t.end(s)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.s) })
	return err
}

// layers derives the span-based per-layer metrics over requests with id
// from onwards. Self time is a span's duration minus the part of it its
// children cover; a layer no request crossed reports 0.
func (t *tracer) layers(from int64) map[string]float64 {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	children := map[uint64][]*span{}
	for i := range spans {
		s := &spans[i]
		children[s.Parent] = append(children[s.Parent], s)
	}
	var clientNet, gwHandler, gwSelf, upstream, serveHandler, reload []float64
	attempts := 0
	for i := range spans {
		s := &spans[i]
		if s.Req < from {
			continue
		}
		us := float64(s.dur()) / 1e3
		kids := children[s.ID]
		switch s.Name {
		case "client":
			if len(kids) == 1 && kids[0].Name != "serve.reload" {
				clientNet = append(clientNet, us-float64(kids[0].dur())/1e3)
			}
		case "gateway":
			gwHandler = append(gwHandler, us)
			gwSelf = append(gwSelf, us-float64(covered(s, kids))/1e3)
			attempts += len(kids)
		case "gateway.attempt":
			upstream = append(upstream, us)
		case "serve":
			serveHandler = append(serveHandler, us)
		case "serve.reload":
			reload = append(reload, us/1e3)
		}
	}
	p := func(xs []float64, q float64) float64 {
		sort.Float64s(xs)
		return quantile(xs, q)
	}
	return map[string]float64{
		"client.net_us.p50":        p(clientNet, 0.5),
		"gateway.handler_us.p50":   p(gwHandler, 0.5),
		"gateway.upstream_us.p50":  p(upstream, 0.5),
		"gateway.self_us.p50":      p(gwSelf, 0.5),
		"gateway.attempts_per_req": ratio(float64(attempts), float64(len(gwHandler))),
		"serve.handler_us.p50":     p(serveHandler, 0.5),
		"serve.handler_us.p90":     p(serveHandler, 0.9),
		"registry.reload_ms.p50":   p(reload, 0.5),
	}
}

// covered returns how much of parent's interval the children cover.
func covered(parent *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach int64
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			total += v.hi - lo
			reach = v.hi
		}
	}
	return total
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
