package loadtest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

// serveReplica is one in-process perfpredd replica of the tier. The
// serve.Server (with its registry, batcher and prediction
// cache) lives for the whole run; only the HTTP listener is killed and
// rebound, which is exactly what a crashed-and-restarted process looks
// like from the gateway's side of the wire while keeping the cache and
// generation state a real warm restart would have to rebuild. (The
// harness verifies bit-equivalence and generation bookkeeping, neither
// of which a cold cache would change.)
type serveReplica struct {
	srv *serve.Server
	// addr is the fixed host:port, stable across kill/restart: written
	// by the first bind only, so it is read without the lock.
	addr string

	mu       sync.Mutex
	hs       *http.Server
	down     bool
	serveErr chan error
}

// bind (re)binds the replica's listener on its fixed address and starts
// serving. The first call binds an ephemeral port, which then sticks.
func (sr *serveReplica) bind() error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	addr := sr.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("loadtest: binding replica %q: %w", addr, err)
	}
	if sr.addr == "" {
		sr.addr = ln.Addr().String()
		sr.srv.SetAddr(sr.addr)
	}
	sr.hs = &http.Server{Handler: sr.srv.Handler()}
	sr.serveErr = make(chan error, 1)
	sr.down = false
	hs := sr.hs
	ch := sr.serveErr
	go func() { ch <- hs.Serve(ln) }()
	return nil
}

// kill force-closes the replica's listener and every open connection —
// a process crash as seen from the network. The serve.Server survives.
func (sr *serveReplica) kill() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.down || sr.hs == nil {
		return
	}
	sr.down = true
	sr.hs.Close() //nolint:errcheck // force-close is the point
	<-sr.serveErr // reap the Serve goroutine
}

// stop gracefully drains the replica's HTTP surface (end-of-run
// teardown, not crash simulation).
func (sr *serveReplica) stop(ctx context.Context) error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.down || sr.hs == nil {
		return nil
	}
	sr.down = true
	if err := sr.hs.Shutdown(ctx); err != nil {
		return err
	}
	err := <-sr.serveErr
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// topology is the serving tier of a run: N in-process replicas over one
// models dir, fronted by a Gateway when N ≥ 2 (a single replica is
// talked to directly, exactly as a bare perfpredd is), plus the
// kill/restart choreography.
type topology struct {
	reps    []*serveReplica
	gw      *gateway.Gateway // nil at N=1
	gwHS    *http.Server
	gwErr   chan error
	baseURL string // the front: the gateway, or the only replica

	// kills and restarts are written by the kill goroutine and read only
	// after teardown has waited for it.
	kills    int
	restarts int
	stopKill chan struct{}
	killWG   sync.WaitGroup
}

// startTopology boots n replicas over the shared models dir and, when
// n ≥ 2, one gateway fronting them. Faults must already be armed: the
// servers and the gateway snapshot the active injector at construction.
func startTopology(cfg Config, dir string, n int) (*topology, error) {
	top := &topology{stopKill: make(chan struct{})}
	fail := func(err error) (*topology, error) {
		top.teardown() //nolint:errcheck // already failing
		return nil, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := serve.New(serve.Config{
			ModelsDir:      dir,
			RequestTimeout: cfg.requestTimeout(),
			Batcher: serve.BatcherConfig{
				QueueDepth: 8,
				MaxBatch:   8,
				Workers:    2,
			},
		})
		if err != nil {
			return fail(fmt.Errorf("loadtest: starting replica %d: %w", i, err))
		}
		sr := &serveReplica{srv: srv}
		top.reps = append(top.reps, sr)
		if err := sr.bind(); err != nil {
			return fail(err)
		}
		addrs[i] = sr.addr
	}
	top.baseURL = "http://" + addrs[0]
	if n < 2 {
		return top, nil
	}
	gw, err := gateway.New(gateway.Config{
		Replicas: addrs,
		// Probe fast enough that a killed replica ejects (and a
		// restarted one readmits) well inside the schedule horizon, but
		// slow enough that a few requests land on the corpse first and
		// exercise the transparent-retry path.
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		RequestTimeout:   5 * time.Second,
	})
	if err != nil {
		return fail(err)
	}
	top.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	gw.SetAddr(ln.Addr().String())
	top.baseURL = "http://" + ln.Addr().String()
	top.gwHS = &http.Server{Handler: gw.Handler()}
	top.gwErr = make(chan error, 1)
	go func() { top.gwErr <- top.gwHS.Serve(ln) }()
	return top, nil
}

// scheduleKill arranges one replica crash at ~35% of the horizon and
// its restart at ~65%, picking the victim deterministically from the
// seed. The stopKill channel aborts the choreography at teardown.
func (top *topology) scheduleKill(seed int64, horizon time.Duration) {
	victim := top.reps[int(uint64(seed)%uint64(len(top.reps)))]
	killAt := horizon * 35 / 100
	restartAt := horizon * 65 / 100
	top.killWG.Add(1)
	go func() {
		defer top.killWG.Done()
		select {
		case <-top.stopKill:
			return
		case <-time.After(killAt):
		}
		victim.kill()
		top.kills++
		select {
		case <-top.stopKill:
			return
		case <-time.After(restartAt - killAt):
		}
		if err := victim.bind(); err == nil {
			top.restarts++
		}
	}()
}

// teardown drains the tier in dependency order — gateway HTTP surface,
// gateway probes/in-flight, then each replica's HTTP surface, batcher
// and server — mirroring the SIGTERM contract of the real two-tier
// topology. Safe on a partially constructed tier.
func (top *topology) teardown() error {
	close(top.stopKill)
	top.killWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	if top.gwHS != nil {
		if err := top.gwHS.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		if err := <-top.gwErr; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	if top.gw != nil {
		top.gw.Close()
	}
	for _, sr := range top.reps {
		if err := sr.stop(ctx); err != nil && first == nil {
			first = err
		}
		sr.srv.Close()
	}
	return first
}
