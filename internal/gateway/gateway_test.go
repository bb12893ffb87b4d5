package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfpred/internal/faultinject"
)

// fakeReplica is a scriptable upstream standing in for perfpredd: it
// answers /healthz and /v1/predict, counts predicts, and can be made to
// stall, fail transport (server stopped), or answer canned statuses.
type fakeReplica struct {
	srv      *httptest.Server
	predicts atomic.Int64
	probes   atomic.Int64

	mu      sync.Mutex
	stall   time.Duration
	status  int
	body    string
	healthy bool
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{status: http.StatusOK, healthy: true}
	f.body = `{"model":"m","predictions":[1]}`
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		f.probes.Add(1)
		f.mu.Lock()
		ok := f.healthy
		f.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		f.predicts.Add(1)
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		f.mu.Lock()
		stall, status, body := f.stall, f.status, f.body
		f.mu.Unlock()
		if stall > 0 {
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "3")
		}
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeReplica) set(fn func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func newTestGateway(t *testing.T, cfg Config, reps ...*fakeReplica) *Gateway {
	t.Helper()
	for _, r := range reps {
		cfg.Replicas = append(cfg.Replicas, r.addr())
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func predictBody(model string, cells ...float64) string {
	row, _ := json.Marshal(cells)
	return fmt.Sprintf(`{"model":%q,"row":%s}`, model, row)
}

func doPredict(t *testing.T, g *Gateway, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRoutingKeyFraming pins the affinity contract: the key depends on
// (model, row values), not on JSON framing — single-row and one-element
// batch forms, whitespace, field order and numeric spelling all
// coincide; any value or model change separates.
func TestRoutingKeyFraming(t *testing.T) {
	base, err := routingKey([]byte(`{"model":"m","row":[1,2.5,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	same := []string{
		`{"model":"m","rows":[[1,2.5,3]]}`,
		` { "row" : [ 1.0 , 2.5 , 3 ] , "model" : "m" } `,
	}
	for _, s := range same {
		if k, err := routingKey([]byte(s)); err != nil || k != base {
			t.Errorf("body %s got key %#x (%v), want %#x", s, k, err, base)
		}
	}
	diff := []string{
		`{"model":"m2","row":[1,2.5,3]}`,
		`{"model":"m","row":[1,2.5,4]}`,
		`{"model":"m","row":[1,2.5]}`,
		`{"model":"m","rows":[[1,2.5,3],[1,2.5,3]]}`,
	}
	for _, s := range diff {
		if k, err := routingKey([]byte(s)); err != nil || k == base {
			t.Errorf("body %s should key differently from the base", s)
		}
	}
	if _, err := routingKey([]byte(`{"not":"a request"}`)); err == nil {
		t.Error("routingKey accepted a malformed body")
	}
	// Every replica rejects a nested cell, so all nested cells share one
	// key whatever they hold.
	a, aerr := routingKey([]byte(`{"model":"m","row":[1,[2,"x"],3]}`))
	b, berr := routingKey([]byte(`{"model":"m","row":[1,{"y":[4]},3]}`))
	if aerr != nil || berr != nil || a != b {
		t.Errorf("nested cells keyed %#x (%v) and %#x (%v), want one key", a, aerr, b, berr)
	}
}

// TestRoutingKeyZeroAlloc pins the gateway's per-request parse at zero
// allocations on gcc bodies of one and 64 rows. Under -race the parse
// still runs but the count is not asserted: sync.Pool drops puts there,
// so json.Valid's pooled scanner allocates by design.
func TestRoutingKeyZeroAlloc(t *testing.T) {
	for _, body := range gccBodies(t) {
		if _, err := routingKey(body); err != nil {
			t.Fatal(err)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { routingKey(body) }); allocs != 0 {
			t.Errorf("%d-byte body: routingKey allocates %.1f/op, want 0", len(body), allocs)
		}
	}
}

// TestRendezvousStability pins the two rendezvous properties routing
// relies on: determinism (same key, same order) and minimal disruption
// (removing one replica only moves the keys it owned).
func TestRendezvousStability(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3"}
	full := &Gateway{}
	for i, addr := range addrs {
		full.reps = append(full.reps, newReplica(i, addr))
	}
	// without[j] is the same tier with replica j removed; replica
	// identities are address-derived, so the survivors keep theirs.
	without := make([]*Gateway, len(addrs))
	for j := range addrs {
		without[j] = &Gateway{}
		for i, addr := range addrs {
			if i != j {
				without[j].reps = append(without[j].reps, newReplica(len(without[j].reps), addr))
			}
		}
	}
	const keys = 2048
	owners := map[string]int{}
	for k := uint64(0); k < keys; k++ {
		o1, o2 := full.order(k), full.order(k)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("order not deterministic for key %d", k)
			}
		}
		owner := o1[0]
		owners[owner.addr]++
		for j := range addrs {
			got := without[j].order(k)[0].addr
			if addrs[j] == owner.addr {
				// The key's owner left: it must fall back to exactly its
				// second choice in the full ordering.
				if got != o1[1].addr {
					t.Fatalf("key %d fell back to %s, want second choice %s", k, got, o1[1].addr)
				}
			} else if got != owner.addr {
				// Some other replica left: this key must not move.
				t.Fatalf("key %d moved from %s to %s when unrelated replica %s left",
					k, owner.addr, got, addrs[j])
			}
		}
	}
	// Ownership should spread across all three replicas, roughly evenly.
	if len(owners) != 3 {
		t.Fatalf("expected 3 owners, got %v", owners)
	}
	for addr, n := range owners {
		if n < keys/6 {
			t.Errorf("replica %s owns only %d/%d keys — rendezvous is badly skewed", addr, n, keys)
		}
	}
}

// TestAffinityAndPassThrough drives real requests and checks that a
// repeated row lands on exactly one replica and its response (headers
// included) relays byte-for-byte.
func TestAffinityAndPassThrough(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	g := newTestGateway(t, Config{ProbeInterval: time.Hour}, r1, r2)

	body := predictBody("pd-lre", 1, 2, 3)
	hit := map[string]int{}
	for i := 0; i < 10; i++ {
		rec := doPredict(t, g, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != `{"model":"m","predictions":[1]}` {
			t.Fatalf("body not relayed byte-for-byte: %q", got)
		}
		if route := rec.Header().Get(HeaderRoute); route != RoutePrimary {
			t.Fatalf("expected primary route, got %q", route)
		}
		hit[rec.Header().Get(HeaderReplica)]++
	}
	if len(hit) != 1 {
		t.Fatalf("one hot row hit %d replicas (%v); want exactly 1", len(hit), hit)
	}
	if r1.predicts.Load()+r2.predicts.Load() != 10 {
		t.Fatalf("replicas saw %d+%d predicts, want 10 total", r1.predicts.Load(), r2.predicts.Load())
	}
}

// TestReplicaStatusPassThrough pins that replica 4xx/5xx terminal
// responses — including 429 backpressure with Retry-After — relay
// unchanged rather than triggering gateway retries.
func TestReplicaStatusPassThrough(t *testing.T) {
	r1 := newFakeReplica(t)
	r1.set(func(f *fakeReplica) {
		f.status = http.StatusTooManyRequests
		f.body = `{"error":"serve: admission queue full"}`
	})
	g := newTestGateway(t, Config{ProbeInterval: time.Hour}, r1)

	rec := doPredict(t, g, predictBody("m", 1))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q not passed through", ra)
	}
	if got := rec.Body.String(); got != `{"error":"serve: admission queue full"}` {
		t.Fatalf("error body not relayed: %q", got)
	}
	if n := r1.predicts.Load(); n != 1 {
		t.Fatalf("replica saw %d attempts, want 1 (no retry on HTTP status)", n)
	}
}

// TestRetryOnDeadReplica kills the routed replica's server and checks
// the request transparently lands on the survivor with route=retry.
func TestRetryOnDeadReplica(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	g := newTestGateway(t, Config{ProbeInterval: time.Hour, FailThreshold: 100}, r1, r2)

	// Find which replica owns this row, then kill it.
	body := predictBody("m", 9, 9, 9)
	rec := doPredict(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d", rec.Code)
	}
	owner := rec.Header().Get(HeaderReplica)
	for _, f := range []*fakeReplica{r1, r2} {
		if f.addr() == owner {
			f.srv.CloseClientConnections()
			f.srv.Close()
		}
	}
	rec = doPredict(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict after kill: status %d: %s", rec.Code, rec.Body)
	}
	if route := rec.Header().Get(HeaderRoute); route != RouteRetry {
		t.Fatalf("route %q, want retry", route)
	}
	if got := rec.Header().Get(HeaderReplica); got == owner {
		t.Fatalf("retry landed on the dead replica %s", got)
	}
	if g.Report().Retries == 0 {
		t.Fatal("retry counter did not move")
	}
}

// TestEjectAndReadmit drives the health-state machine end to end with
// active probes: a failing replica is ejected (and takes no traffic),
// then readmitted once probes succeed again.
func TestEjectAndReadmit(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	g := newTestGateway(t, Config{
		ProbeInterval:    5 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
	}, r1, r2)

	r1.set(func(f *fakeReplica) { f.healthy = false })
	deadline := time.Now().Add(5 * time.Second)
	var ejected *replica
	for _, rep := range g.reps {
		if rep.addr == r1.addr() {
			ejected = rep
		}
	}
	for ejected.isHealthy() {
		if time.Now().After(deadline) {
			t.Fatal("replica was never ejected")
		}
		time.Sleep(time.Millisecond)
	}
	// While ejected, every request routes to the survivor.
	for i := 0; i < 8; i++ {
		rec := doPredict(t, g, predictBody("m", float64(i)))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict during ejection: %d", rec.Code)
		}
		if rep := rec.Header().Get(HeaderReplica); rep != r2.addr() {
			t.Fatalf("request hit ejected replica %s", rep)
		}
	}
	r1.set(func(f *fakeReplica) { f.healthy = true })
	for !ejected.isHealthy() {
		if time.Now().After(deadline) {
			t.Fatal("replica was never readmitted")
		}
		time.Sleep(time.Millisecond)
	}
	rep := g.Report()
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Ejects == 0 || rep.Readmits == 0 {
		t.Fatalf("transitions not recorded: %d ejects %d readmits", rep.Ejects, rep.Readmits)
	}
}

// TestEjectedReplicaProbedOnCadence pins the single probe cadence: a
// replica that keeps failing /healthz after its ejection is still
// probed every ProbeInterval, so a restarted replica is readmitted
// within ReadmitThreshold intervals. The 300ms window holds about 60
// probes; the floor of 27 leaves slack for the race detector and still
// fails any backoff that doubles toward 8×ProbeInterval (about 9).
func TestEjectedReplicaProbedOnCadence(t *testing.T) {
	r1 := newFakeReplica(t)
	r1.set(func(f *fakeReplica) { f.healthy = false })
	g := newTestGateway(t, Config{ProbeInterval: 5 * time.Millisecond, FailThreshold: 2}, r1)
	deadline := time.Now().Add(5 * time.Second)
	for g.reps[0].isHealthy() {
		if time.Now().After(deadline) {
			t.Fatal("replica was never ejected")
		}
		time.Sleep(time.Millisecond)
	}
	before := g.Report().Replicas[0].ProbeFailures
	time.Sleep(300 * time.Millisecond)
	after := g.Report().Replicas[0]
	if after.Healthy {
		t.Fatal("a replica failing every probe was readmitted")
	}
	if got := after.ProbeFailures - before; got < 27 {
		t.Fatalf("ejected replica failed %d probes in 300ms at a 5ms interval, want >= 27", got)
	}
}

// TestMalformedBodyAnsweredAtEdge pins where client errors are
// classified: a body that fails the replicas' pass 1 is answered by the
// gateway with the status and bytes a replica gives it, without a
// replica hop and without counting as a gateway error, while an error
// that needs a schema (here an unknown model) is still the replica's.
func TestMalformedBodyAnsweredAtEdge(t *testing.T) {
	rep := httptest.NewServer(newGCCReplica(t).Handler())
	t.Cleanup(rep.Close)
	r1 := newFakeReplica(t)
	g := newTestGateway(t, Config{ProbeInterval: time.Hour}, r1)

	for _, body := range []string{
		`{"rows":[[1]]}`,
		`{"model":"m","row":[`,
		`{"model":"m","row":[1]}]`,
		`{"model":"m","row":[1],"extra":1}`,
		`{"model":"m","rows":[]}`,
	} {
		res, err := http.Post(rep.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		rec := doPredict(t, g, body)
		if rec.Code != http.StatusBadRequest || res.StatusCode != http.StatusBadRequest || rec.Body.String() != string(want) {
			t.Errorf("body %s: gateway answered %d %q, replica %d %q", body, rec.Code, rec.Body, res.StatusCode, want)
		}
	}
	if n := r1.predicts.Load(); n != 0 {
		t.Fatalf("%d malformed bodies reached the replica", n)
	}
	if n := g.Report().Errors; n != 0 {
		t.Fatalf("client errors counted %d gateway errors", n)
	}
	if rec := doPredict(t, g, predictBody("nope", 1)); rec.Code != http.StatusOK || r1.predicts.Load() != 1 {
		t.Fatalf("a well-formed body was not forwarded: %d, %d predicts", rec.Code, r1.predicts.Load())
	}
}

// TestDrainRefusesNewWork checks Close's drain contract: after Close,
// new predicts get 503 and Close has waited for in-flight work.
func TestDrainRefusesNewWork(t *testing.T) {
	r1 := newFakeReplica(t)
	r1.set(func(f *fakeReplica) { f.stall = 100 * time.Millisecond })
	g := newTestGateway(t, Config{ProbeInterval: time.Hour}, r1)

	done := make(chan int, 1)
	go func() {
		done <- doPredict(t, g, predictBody("m", 1)).Code
	}()
	deadline := time.Now().Add(2 * time.Second)
	for r1.predicts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never reached the replica")
		}
		time.Sleep(time.Millisecond)
	}
	g.Close() // must wait for the stalled request
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("in-flight request during drain got %d, want 200", code)
		}
	default:
		t.Fatal("Close returned before the in-flight request finished")
	}
	rec := doPredict(t, g, predictBody("m", 1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict got %d, want 503", rec.Code)
	}
}

// TestAllReplicasDown pins the terminal failure modes: transport
// failure on every replica yields 502; zero healthy replicas yields 503.
func TestAllReplicasDown(t *testing.T) {
	r1 := newFakeReplica(t)
	g := newTestGateway(t, Config{ProbeInterval: time.Hour, FailThreshold: 100}, r1)
	r1.srv.CloseClientConnections()
	r1.srv.Close()

	rec := doPredict(t, g, predictBody("m", 1))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all-transport-failed got %d, want 502", rec.Code)
	}

	// Now eject it and check the 503 path.
	g.reps[0].mu.Lock()
	g.ejectLocked(g.reps[0])
	g.reps[0].mu.Unlock()
	rec = doPredict(t, g, predictBody("m", 1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-healthy-replicas got %d, want 503", rec.Code)
	}
}

// TestGatewayFaultPoints exercises the two injected gateway faults: a
// route fault answers 503 without touching a replica, and a probe fault
// ejects a healthy replica.
func TestGatewayFaultPoints(t *testing.T) {
	t.Run("route", func(t *testing.T) {
		restore := faultinject.Activate(faultinject.New(map[faultinject.Point]faultinject.Plan{
			faultinject.GatewayRoute: {Every: 1, Err: context.DeadlineExceeded},
		}))
		defer restore()
		r1 := newFakeReplica(t)
		g := newTestGateway(t, Config{ProbeInterval: time.Hour}, r1)
		rec := doPredict(t, g, predictBody("m", 1))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("route fault got %d, want 503", rec.Code)
		}
		if r1.predicts.Load() != 0 {
			t.Fatal("route fault still consumed replica capacity")
		}
		if g.Report().FaultsInjected == 0 {
			t.Fatal("fault counter did not move")
		}
	})
	t.Run("probe fault ejects", func(t *testing.T) {
		restore := faultinject.Activate(faultinject.New(map[faultinject.Point]faultinject.Plan{
			faultinject.GatewayHealthProbe: {Every: 1, Err: context.DeadlineExceeded},
		}))
		defer restore()
		r1 := newFakeReplica(t)
		g := newTestGateway(t, Config{
			ProbeInterval: 2 * time.Millisecond, FailThreshold: 2,
		}, r1)
		deadline := time.Now().Add(5 * time.Second)
		for g.reps[0].isHealthy() {
			if time.Now().After(deadline) {
				t.Fatal("probe faults never ejected the replica")
			}
			time.Sleep(time.Millisecond)
		}
		if r1.probes.Load() != 0 {
			t.Fatal("injected probe fault still hit the replica's /healthz")
		}
	})
}

// TestReloadFanout checks /admin/reload reaches every replica and a
// partial failure reports 500 with per-replica detail.
func TestReloadFanout(t *testing.T) {
	ok := newFakeReplica(t)
	bad := newFakeReplica(t)
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"generation":4,"models":["m"]}`)
	})
	ok.srv.Config.Handler = mux
	badMux := http.NewServeMux()
	badMux.HandleFunc("/admin/reload", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"serve: reload failed"}`)
	})
	bad.srv.Config.Handler = badMux
	g := newTestGateway(t, Config{ProbeInterval: time.Hour}, ok, bad)

	req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("partial reload got %d, want 500", rec.Code)
	}
	var fan ReloadFanout
	if err := json.Unmarshal(rec.Body.Bytes(), &fan); err != nil {
		t.Fatalf("decoding fan-out: %v", err)
	}
	if fan.OK || len(fan.Replicas) != 2 {
		t.Fatalf("unexpected fan-out: %+v", fan)
	}
	for _, r := range fan.Replicas {
		switch r.Addr {
		case ok.addr():
			if r.Generation != 4 || r.Error != "" {
				t.Fatalf("healthy replica result: %+v", r)
			}
		case bad.addr():
			if r.Error != "serve: reload failed" {
				t.Fatalf("failed replica result: %+v", r)
			}
		}
	}
}

// TestConfigValidation pins constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero replicas")
	}
	if _, err := New(Config{Replicas: []string{"a:1", "a:1"}}); err == nil {
		t.Error("New accepted duplicate replicas")
	}
	if _, err := New(Config{Replicas: []string{""}}); err == nil {
		t.Error("New accepted an empty replica address")
	}
	if _, err := New(Config{Replicas: []string{"a:1"}, HedgeDelay: time.Millisecond}); err == nil {
		t.Error("New accepted a non-zero HedgeDelay")
	}
}

// assertNoStrikes fails unless every replica is still healthy with no
// transport errors on record.
func assertNoStrikes(t *testing.T, g *Gateway) {
	t.Helper()
	for _, rr := range g.Report().Replicas {
		if !rr.Healthy || rr.TransportErrors != 0 {
			t.Errorf("replica %s: healthy=%v transport errors=%d, want healthy with 0",
				rr.Addr, rr.Healthy, rr.TransportErrors)
		}
	}
}

// TestAbandonedAdminCallsDoNotStrike pins that a reload fan-out or a
// /v1/models proxy whose client has already gone never counts against
// the replicas: the failure is the caller's own cancelled context, so
// predicts afterwards must still find every replica healthy.
func TestAbandonedAdminCallsDoNotStrike(t *testing.T) {
	for _, tc := range []struct{ name, method, path string }{
		{"reload", http.MethodPost, "/admin/reload"},
		{"models", http.MethodGet, "/v1/models"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r1, r2 := newFakeReplica(t), newFakeReplica(t)
			g := newTestGateway(t, Config{ProbeInterval: time.Hour, FailThreshold: 2}, r1, r2)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for i := 0; i < 2; i++ {
				req := httptest.NewRequest(tc.method, tc.path, nil).WithContext(ctx)
				g.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}
			assertNoStrikes(t, g)
			if rec := doPredict(t, g, predictBody("m", 1)); rec.Code != http.StatusOK {
				t.Fatalf("predict after abandoned %s calls got %d: %s", tc.path, rec.Code, rec.Body)
			}
		})
	}
}

// TestAbandonedPredictNeverStrikes pins that a predict which ends
// because its client left, or because RequestTimeout expired, answers
// 504 and leaves the stalled replica healthy even at FailThreshold 1.
func TestAbandonedPredictNeverStrikes(t *testing.T) {
	t.Run("client cancels", func(t *testing.T) {
		r1 := newFakeReplica(t)
		r1.set(func(f *fakeReplica) { f.stall = 10 * time.Second })
		g := newTestGateway(t, Config{ProbeInterval: time.Hour, FailThreshold: 1}, r1)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			for r1.predicts.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody("m", 1))).WithContext(ctx)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("abandoned predict got %d, want 504", rec.Code)
		}
		assertNoStrikes(t, g)
	})
	t.Run("request timeout", func(t *testing.T) {
		r1 := newFakeReplica(t)
		r1.set(func(f *fakeReplica) { f.stall = 10 * time.Second })
		g := newTestGateway(t, Config{
			ProbeInterval: time.Hour, FailThreshold: 1, RequestTimeout: 50 * time.Millisecond,
		}, r1)
		if rec := doPredict(t, g, predictBody("m", 1)); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("timed-out predict got %d, want 504", rec.Code)
		}
		assertNoStrikes(t, g)
	})
}
