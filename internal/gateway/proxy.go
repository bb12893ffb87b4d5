package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

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

// reply is one replica's complete HTTP response, whatever its status.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// handlePredict proxies one prediction through the replica tier: route
// by rendezvous key, dispatch down that order, and relay the answering
// replica's response byte-for-byte.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := g.clock.Now()
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
		g.met.latency.Observe(max(g.clock.Since(start).Seconds(), 0))
	}()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	// Routing fault point: latency delays replica selection, a forced
	// error answers 503 before any replica capacity is consumed.
	if fired, ferr := g.fi.Hit(ctx, faultinject.GatewayRoute); fired {
		g.met.faults.Inc()
		if ferr != nil {
			g.met.errors.Inc()
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("routing fault injected: %w", ferr))
			return
		}
	}

	key, keyed := routingKey(body)
	var order []*replica
	if keyed {
		order = g.order(key)
	} else {
		order = g.spreadOrder()
	}
	contentType := r.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}
	g.dispatch(ctx, w, order, body, contentType)
}

// dispatch walks order synchronously and answers w. The first healthy
// replica is the primary. A transport failure retries on the next
// healthy replica with a free in-flight slot; the first HTTP response,
// whatever its status, is relayed.
//
// A primary at its in-flight cap sheds 429 rather than spilling onto
// other replicas: spilling would shred cache affinity exactly when the
// tier is busiest, and the replica's own admission queue is the primary
// shed point, whose 429s pass through long before the gateway cap bites.
func (g *Gateway) dispatch(ctx context.Context, w http.ResponseWriter, order []*replica, body []byte, contentType string) {
	route := RoutePrimary
	var lastErr error
	for _, rep := range order {
		if !rep.isHealthy() {
			continue
		}
		if !rep.acquire(g.cfg.MaxInFlight) {
			if route == RoutePrimary {
				g.met.shed.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, errors.New("routed replica at in-flight capacity"))
				return
			}
			continue
		}
		if route == RouteRetry {
			g.met.retries.Inc()
		}
		rep.requests.Add(1)
		start := g.clock.Now()
		res, err := g.call(ctx, rep, http.MethodPost, "/v1/predict", body, contentType)
		g.met.upstream.Observe(max(g.clock.Since(start).Seconds(), 0))
		rep.release()
		if err == nil {
			w.Header().Set(HeaderRoute, route)
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
		route = RouteRetry
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
func (g *Gateway) send(ctx context.Context, rep *replica, method, path string, body []byte, contentType string) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// call is send on the request path, and the one place a request feeds
// rep's health machine: any HTTP response resets its failure streak,
// and a transport failure strikes it — unless ctx was already done,
// because an abandoned client or an expired deadline says nothing about
// the replica. Every predict, proxy and reload call goes through here.
func (g *Gateway) call(ctx context.Context, rep *replica, method, path string, body []byte, contentType string) (*reply, error) {
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
// Retry-After backpressure).
func relay(w http.ResponseWriter, rep *replica, res *reply) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(HeaderReplica, rep.addr)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // best-effort: client may have gone
}

// proxyAny forwards a read-only request (GET /v1/models, /v1/report) to
// the first healthy replica that answers, in round-robin order.
func (g *Gateway) proxyAny(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	lastErr := errors.New("no healthy replicas")
	for _, rep := range g.spreadOrder() {
		if !rep.isHealthy() {
			continue
		}
		res, err := g.call(ctx, rep, http.MethodGet, r.URL.Path, nil, "")
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
	writeJSON(w, status, fan)
}

func (g *Gateway) reloadOne(ctx context.Context, rep *replica) ReloadResult {
	out := ReloadResult{Addr: rep.addr}
	res, err := g.call(ctx, rep, http.MethodPost, "/admin/reload", nil, "")
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
