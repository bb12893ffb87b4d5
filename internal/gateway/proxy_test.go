package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// cannedTransport answers every round trip with one fixed response and
// counts the calls, without a socket and without allocating: the
// response, its header and its body reader are reused.
type cannedTransport struct {
	status int
	header http.Header
	body   string
	calls  int
	rd     strings.Reader
	resp   http.Response
}

// cannedBody closes the reused reader as a no-op; holding only a
// pointer, it converts to io.ReadCloser without allocating.
type cannedBody struct{ *strings.Reader }

func (cannedBody) Close() error { return nil }

func (c *cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.calls++
	if r.Body != nil {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		r.Body.Close()
	}
	c.rd.Reset(c.body)
	c.resp = http.Response{
		StatusCode: c.status, Header: c.header, Body: cannedBody{&c.rd},
		ContentLength: int64(len(c.body)), Request: r,
	}
	return &c.resp, nil
}

// discardWriter is a reusable ResponseWriter that keeps the status and
// the header map and drops the body.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// newCannedGateway builds a one-replica gateway over tr whose probe loop
// stays idle for the test's lifetime.
func newCannedGateway(t *testing.T, tr http.RoundTripper) *Gateway {
	t.Helper()
	g, err := New(Config{Replicas: []string{"replica:1"}, ProbeInterval: time.Hour, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// gatewayPredictAllocs is what one relayed predict costs the gateway's
// handler — routing, the upstream request, relaying the reply — with the
// transport and the client side allocating nothing. Five of them are
// the RequestTimeout context.
const gatewayPredictAllocs = 12

// TestGatewayPredictAllocs pins the gateway's allocations per predict
// at gatewayPredictAllocs. Under -race the path still runs but the count
// is not asserted, as in TestRoutingKeyZeroAlloc.
func TestGatewayPredictAllocs(t *testing.T) {
	tr := &cannedTransport{
		status: http.StatusOK,
		header: http.Header{"Content-Type": {"application/json"}},
		body:   `{"model":"m","predictions":[1]}`,
	}
	g := newCannedGateway(t, tr)
	h := g.Handler()
	body := strings.NewReader(predictBody("m", 1, 2, 3))
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", io.NopCloser(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = body.Size()
	w := &discardWriter{h: http.Header{}}
	run := func() {
		body.Seek(0, io.SeekStart) //nolint:errcheck
		clear(w.h)
		w.code, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	run()
	if w.code != http.StatusOK || w.n != len(tr.body) || tr.calls != 1 {
		t.Fatalf("predict answered %d with %d bytes after %d round trips", w.code, w.n, tr.calls)
	}
	allocs := testing.AllocsPerRun(1000, run)
	if !raceEnabled && allocs != gatewayPredictAllocs {
		t.Fatalf("gateway predict allocates %.1f/op, want %d", allocs, gatewayPredictAllocs)
	}
}

// TestRedirectRelayed pins the proxy semantics of the one-RoundTrip
// send: a replica's 3xx reaches the client with its headers and body,
// and the gateway sends no second request to follow it.
func TestRedirectRelayed(t *testing.T) {
	tr := &cannedTransport{
		status: http.StatusTemporaryRedirect,
		header: http.Header{"Content-Type": {"text/plain"}, "Location": {"http://elsewhere:1/v1/predict"}},
		body:   "moved\n",
	}
	g := newCannedGateway(t, tr)
	rec := doPredict(t, g, predictBody("m", 1))
	if rec.Code != http.StatusTemporaryRedirect || rec.Body.String() != tr.body {
		t.Fatalf("gateway answered %d %q, want the replica's 307 %q", rec.Code, rec.Body, tr.body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain" {
		t.Fatalf("Content-Type %q not relayed", ct)
	}
	if got := rec.Header().Get(HeaderReplica); got != "replica:1" {
		t.Fatalf("%s = %q, want replica:1", HeaderReplica, got)
	}
	if tr.calls != 1 {
		t.Fatalf("%d round trips, want 1: a 3xx is relayed, not followed", tr.calls)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSendRequestShape pins what one attempt puts on the wire: the
// replica's URL with the path, the client's Content-Type, the body with
// its length, and a GetBody that replays the same bytes, so the
// transport can resend a POST over a fresh connection.
func TestSendRequestShape(t *testing.T) {
	body := predictBody("m", 1, 2)
	var seen []string
	tr := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		got, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		seen = append(seen, r.Method+" "+r.URL.String()+" "+r.Header.Get("Content-Type")+" "+string(got))
		if r.ContentLength != int64(len(body)) || r.GetBody == nil {
			t.Errorf("ContentLength %d, GetBody set %v; want %d, true", r.ContentLength, r.GetBody != nil, len(body))
		} else {
			for i := 0; i < 2; i++ {
				rc, err := r.GetBody()
				if err != nil {
					return nil, err
				}
				if again, _ := io.ReadAll(rc); string(again) != body {
					t.Errorf("GetBody replay %d read %q, want %q", i, again, body)
				}
			}
		}
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("{}"))}, nil
	})
	g := newCannedGateway(t, tr)
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	w := &discardWriter{h: http.Header{}}
	g.Handler().ServeHTTP(w, req)
	want := "POST http://replica:1/v1/predict application/json; charset=utf-8 " + body
	if w.code != http.StatusOK || len(seen) != 1 || seen[0] != want {
		t.Fatalf("answered %d after requests %q, want one %q", w.code, seen, want)
	}
}

// TestTransportErrorWording pins the 502 a failed attempt leaves: the
// transport error comes after the method and the URL, as http.Client
// words it.
func TestTransportErrorWording(t *testing.T) {
	g := newCannedGateway(t, roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("boom")
	}))
	rec := doPredict(t, g, predictBody("m", 1))
	want := `{
  "error": "every routable replica failed (last: Post \"http://replica:1/v1/predict\": boom)"
}
`
	if rec.Code != http.StatusBadGateway || rec.Body.String() != want {
		t.Fatalf("answered %d %q, want 502 %q", rec.Code, rec.Body, want)
	}
}

// TestSequentialPredictsReuseOneConnection pins keep-alive reuse under
// the sized body reads: a reply read to exactly its Content-Length still
// reaches the body's end, so sequential predicts through one replica
// dial exactly one upstream connection.
func TestSequentialPredictsReuseOneConnection(t *testing.T) {
	const reply = `{"model":"m","predictions":[1]}`
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		fmt.Fprint(w, reply)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	g, err := New(Config{Replicas: []string{strings.TrimPrefix(srv.URL, "http://")}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := range 20 {
		rec := doPredict(t, g, predictBody("m", float64(i)))
		if rec.Code != http.StatusOK || rec.Body.String() != reply {
			t.Fatalf("predict %d answered %d %q, want 200 %q", i, rec.Code, rec.Body, reply)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("20 sequential predicts dialed %d upstream connections, want 1", n)
	}
}

// TestTornBodiesAreErrors pins the sized reads' failure mode: a body
// that ends before its declared Content-Length is an error on either
// side, never a truncated relay. A torn client body answers 400 without
// a replica call; a torn replica reply is a transport failure, so the
// one-replica gateway answers 502.
func TestTornBodiesAreErrors(t *testing.T) {
	const tornReply = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"model\":"
	var predicts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		predicts.Add(1)
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString(tornReply) //nolint:errcheck
		buf.Flush()                //nolint:errcheck
	}))
	defer srv.Close()
	g, err := New(Config{Replicas: []string{strings.TrimPrefix(srv.URL, "http://")}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	body := predictBody("m", 1, 2)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.ContentLength = int64(len(body)) + 10
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || predicts.Load() != 0 {
		t.Fatalf("torn request answered %d %q after %d replica calls, want 400 and none", rec.Code, rec.Body, predicts.Load())
	}

	rec = doPredict(t, g, body)
	if rec.Code != http.StatusBadGateway || predicts.Load() != 1 {
		t.Fatalf("torn reply answered %d %q after %d replica calls, want 502 after 1", rec.Code, rec.Body, predicts.Load())
	}
}
