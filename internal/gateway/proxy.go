package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"perfpred/internal/faultinject"
	"perfpred/internal/serve"
)

// Response headers the gateway stamps on proxied predictions. The chaos
// harness reads them to verify cache affinity (hot rows landing on one
// replica) and to account retry traffic separately.
const (
	// HeaderReplica carries the upstream replica address that produced
	// the response.
	HeaderReplica = "X-Perfpred-Replica"
	// HeaderRoute carries how the answering attempt was routed:
	// "primary" or "retry".
	HeaderRoute = "X-Perfpred-Route"
)

// Route values for HeaderRoute.
const (
	RoutePrimary = "primary"
	RouteRetry   = "retry"
)

// Header values shared by every request or response that carries them;
// each has len == cap == 1, so a later Header.Add copies it instead of
// writing through.
var (
	routePrimary    = []string{RoutePrimary}
	routeRetry      = []string{RouteRetry}
	jsonContentType = []string{"application/json"}
)

// reply is one replica's complete HTTP response, whatever its status.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// handlePredict proxies one prediction through the replica tier: answer
// a structurally malformed body 400 itself, otherwise route by
// rendezvous key, dispatch down that order, and relay the answering
// replica's response byte-for-byte.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Register in-flight before re-checking the drain flag: Close sets
	// the flag and then waits, so a request that passes the check here is
	// either counted (and drained) or refused.
	g.inflight.Add(1)
	defer g.inflight.Done()
	if g.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("gateway is draining"))
		return
	}
	g.met.requests.Inc()
	defer func() {
		g.met.latency.Observe(time.Since(start).Seconds())
	}()

	body, err := readBody(http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes), r.ContentLength, serve.MaxRequestBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	// A client error is classified once, here: a body that fails the
	// replicas' own pass 1 gets the 400 a replica would give it, without
	// a replica hop and outside every gateway error metric. Errors that
	// need a schema stay the replica's.
	key, err := routingKey(body)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	// Routing fault point: latency delays replica selection, a forced
	// error answers 503 before any replica is called.
	if fired, ferr := g.fi.Hit(ctx, faultinject.GatewayRoute); fired {
		g.met.faults.Inc()
		if ferr != nil {
			g.met.errors.Inc()
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("routing fault injected: %w", ferr))
			return
		}
	}

	contentType := jsonContentType
	if ct := r.Header["Content-Type"]; len(ct) > 0 && ct[0] != "" {
		contentType = ct[:1:1]
	}
	var buf [stackReplicas]*replica
	g.dispatch(ctx, w, g.order(key, &buf), body, contentType)
}

// dispatch walks order synchronously and answers w. The first healthy
// replica is the primary. A transport failure retries on the next
// healthy replica; the first HTTP response, whatever its status, is
// relayed — a replica's 429 included, since its admission queue is the
// tier's only shed point.
func (g *Gateway) dispatch(ctx context.Context, w http.ResponseWriter, order []*replica, body []byte, contentType []string) {
	route := routePrimary
	var lastErr error
	for _, rep := range order {
		if !rep.isHealthy() {
			continue
		}
		if lastErr != nil {
			g.met.retries.Inc()
		}
		rep.requests.Add(1)
		start := time.Now()
		res, err := g.call(ctx, rep, http.MethodPost, "/v1/predict", body, contentType)
		g.met.upstream.Observe(time.Since(start).Seconds())
		if err == nil {
			w.Header()[HeaderRoute] = route
			relay(w, rep, res)
			return
		}
		if ctx.Err() != nil {
			// The client left or the deadline passed; call has not
			// struck the replica.
			g.met.errors.Inc()
			writeError(w, http.StatusGatewayTimeout, ctx.Err())
			return
		}
		lastErr = err
		route = routeRetry
	}
	g.met.errors.Inc()
	if lastErr == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no healthy replicas"))
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("every routable replica failed (last: %v)", lastErr))
}

// send makes one request to rep and reads the whole response body, so a
// connection torn mid-body surfaces as an error, never as a truncated
// relay. It touches no health state; probes use it directly.
//
// The request is one RoundTrip on the configured transport, as a
// reverse proxy makes it: no http.Client, so a replica's 3xx is relayed,
// not followed. contentType, when set, is the request's Content-Type
// value slice, shared and never written.
func (g *Gateway) send(ctx context.Context, rep *replica, method, path string, body []byte, contentType []string) (reply, error) {
	o := &outbound{url: rep.url}
	o.url.Path = path
	req := &http.Request{Method: method, URL: &o.url, Header: http.Header{}}
	if contentType != nil {
		req.Header["Content-Type"] = contentType
	}
	if len(body) > 0 {
		o.body.Reset(body)
		req.Body = &o.body
		req.ContentLength = int64(len(body))
		// The transport replays the body through GetBody when a reused
		// keep-alive connection turns out to be dead.
		req.GetBody = func() (io.ReadCloser, error) {
			p := new(payload)
			p.Reset(body)
			return p, nil
		}
	}
	resp, err := g.tr.RoundTrip(req.WithContext(ctx))
	if err != nil {
		// Worded as http.Client words it, so 502 and reload messages
		// name the method and the URL.
		return reply{}, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: o.url.String(), Err: err}
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, resp.ContentLength, maxSizedReply)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// maxSizedReply bounds the buffer a reply's declared Content-Length may
// size before any byte of it arrives; a longer reply is read as one of
// unknown length.
const maxSizedReply = 1 << 20

// readBody reads all of r, whose declared length is n. When n is known
// and at most limit, it reads exactly n bytes into one buffer of that
// size, where io.ReadAll would start at 512 bytes and regrow; otherwise
// it falls back to io.ReadAll. A body that ends before n bytes is an
// error. The read that completes a declared length reaches the body's
// EOF, so the transport still returns the connection to its idle pool.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n <= 0 || n > limit {
		return io.ReadAll(r)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// outbound is one upstream request's URL and body, allocated together.
type outbound struct {
	url  url.URL
	body payload
}

// payload is an upstream request body over bytes the gateway holds for
// the whole call.
type payload struct{ bytes.Reader }

func (*payload) Close() error { return nil }

// call is send on the request path, and the one place a request feeds
// rep's health machine: any HTTP response resets its failure streak,
// and a transport failure strikes it — unless ctx was already done,
// because an abandoned client or an expired deadline says nothing about
// the replica. Every predict, proxy and reload call goes through here.
func (g *Gateway) call(ctx context.Context, rep *replica, method, path string, body []byte, contentType []string) (reply, error) {
	res, err := g.send(ctx, rep, method, path, body, contentType)
	switch {
	case err == nil:
		g.noteTransportOK(rep)
	case ctx.Err() == nil:
		g.noteTransportError(rep)
	}
	return res, err
}

// relay writes a replica's response to the client byte-for-byte,
// preserving the headers that carry contract (content type, replica
// Retry-After backpressure). It reuses the reply's own value slices,
// which the transport parses with len == cap == 1.
func relay(w http.ResponseWriter, rep *replica, res reply) {
	h := w.Header()
	for _, k := range [...]string{"Content-Type", "Retry-After"} {
		if v := res.header[k]; len(v) > 0 && v[0] != "" {
			h[k] = v[:1:1]
		}
	}
	h[HeaderReplica] = rep.addrHeader
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // best-effort: client may have gone
}

// proxyAny forwards a read-only request (GET /v1/models, /v1/report) to
// the first healthy replica that answers, in round-robin order.
func (g *Gateway) proxyAny(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	lastErr := errors.New("no healthy replicas")
	var buf [stackReplicas]*replica
	for _, rep := range g.spreadOrder(&buf) {
		if !rep.isHealthy() {
			continue
		}
		res, err := g.call(ctx, rep, http.MethodGet, r.URL.Path, nil, nil)
		if err != nil {
			lastErr = err
			continue
		}
		relay(w, rep, res)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("proxying %s: %w", r.URL.Path, lastErr))
}

// ReloadResult is one replica's outcome in a reload fan-out.
type ReloadResult struct {
	// Addr is the replica's address.
	Addr string `json:"addr"`
	// Generation is the replica's catalog generation after a successful
	// reload (0 on failure).
	Generation int64 `json:"generation,omitempty"`
	// Error describes a failed reload (transport or replica-side).
	Error string `json:"error,omitempty"`
}

// ReloadFanout is the gateway's response to POST /admin/reload: the
// per-replica outcome of fanning the reload to every replica (ejected
// ones included — a replica coming back must not serve a stale catalog
// because it was down during the reload broadcast).
type ReloadFanout struct {
	// OK reports whether every replica reloaded successfully.
	OK bool `json:"ok"`
	// Replicas lists per-replica outcomes in configuration order.
	Replicas []ReloadResult `json:"replicas"`
}

// handleReload fans POST /admin/reload out to all replicas. 200 when
// every replica reloaded; 500 with per-replica detail otherwise (the
// failed replicas keep serving their previous catalog — the same
// contract a single daemon's failed reload has).
func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	fan := ReloadFanout{OK: true, Replicas: make([]ReloadResult, len(g.reps))}
	for i, rep := range g.reps {
		fan.Replicas[i] = g.reloadOne(ctx, rep)
		if fan.Replicas[i].Error != "" {
			fan.OK = false
		}
	}
	status := http.StatusOK
	if !fan.OK {
		status = http.StatusInternalServerError
	}
	serve.WriteJSON(w, status, fan)
}

func (g *Gateway) reloadOne(ctx context.Context, rep *replica) ReloadResult {
	out := ReloadResult{Addr: rep.addr}
	res, err := g.call(ctx, rep, http.MethodPost, "/admin/reload", nil, nil)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	if res.status != http.StatusOK {
		var e serve.ErrorResponse
		if json.Unmarshal(res.body, &e) == nil && e.Error != "" {
			out.Error = e.Error
		} else {
			out.Error = fmt.Sprintf("reload answered %d", res.status)
		}
		return out
	}
	var rr serve.ReloadResponse
	if err := json.Unmarshal(res.body, &rr); err != nil {
		out.Error = fmt.Sprintf("parsing reload response: %v", err)
		return out
	}
	out.Generation = rr.Generation
	return out
}
