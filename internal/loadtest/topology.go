package loadtest

import (
	"cmp"
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

// process is one in-process server of the tier, a perfpredd replica or
// the gateway, on a listener that can be killed and rebound. The
// server behind the handler (a replica's registry, batcher and
// prediction cache) lives for the whole run; only the listener is
// killed and rebound, which is exactly what a crashed-and-restarted
// process looks like from the other side of the wire while keeping the
// cache and generation state a real warm restart would have to rebuild.
// (The harness verifies bit-equivalence and generation bookkeeping,
// neither of which a cold cache would change.)
type process struct {
	handler http.Handler
	// addr is the fixed host:port, stable across kill/rebind: written
	// by the first bind only, so it is read without the lock.
	addr string

	mu       sync.Mutex
	hs       *http.Server
	down     bool
	serveErr chan error
}

// bind (re)binds the process's listener on its fixed address and starts
// serving. The first call binds an ephemeral port, which then sticks.
func (p *process) bind() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ln, err := net.Listen("tcp", cmp.Or(p.addr, "127.0.0.1:0"))
	if err != nil {
		return fmt.Errorf("loadtest: binding %q: %w", p.addr, err)
	}
	if p.addr == "" {
		p.addr = ln.Addr().String()
	}
	hs, ch := &http.Server{Handler: p.handler}, make(chan error, 1)
	p.hs, p.serveErr, p.down = hs, ch, false
	go func() { ch <- hs.Serve(ln) }()
	return nil
}

// kill force-closes the listener and every open connection — a process
// crash as seen from the network. The server behind it survives.
func (p *process) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || p.hs == nil {
		return
	}
	p.down = true
	p.hs.Close() //nolint:errcheck // force-close is the point
	<-p.serveErr // reap the Serve goroutine
}

// stop gracefully drains the process's HTTP surface (end-of-run
// teardown, not crash simulation).
func (p *process) stop(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || p.hs == nil {
		return nil
	}
	p.down = true
	if err := p.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-p.serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// replica is one in-process perfpredd of the tier.
type replica struct {
	*process
	srv *serve.Server
}

// topology is the serving tier of a run: N in-process replicas over one
// models dir, fronted by a Gateway when N ≥ 2 (a single replica is
// talked to directly, exactly as a bare perfpredd is), plus the
// kill/restart choreography.
type topology struct {
	reps    []replica
	gw      *gateway.Gateway // nil at N=1
	gwProc  *process         // nil at N=1
	baseURL string           // the front: the gateway, or the only replica

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
		r := replica{&process{handler: srv.Handler()}, srv}
		top.reps = append(top.reps, r)
		if err := r.bind(); err != nil {
			return fail(err)
		}
		srv.SetAddr(r.addr)
		addrs[i] = r.addr
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
	top.gw, top.gwProc = gw, &process{handler: gw.Handler()}
	if err := top.gwProc.bind(); err != nil {
		return fail(err)
	}
	gw.SetAddr(top.gwProc.addr)
	top.baseURL = "http://" + top.gwProc.addr
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
	if top.gw != nil {
		first = top.gwProc.stop(ctx)
		top.gw.Close()
	}
	for _, r := range top.reps {
		if err := r.stop(ctx); err != nil && first == nil {
			first = err
		}
		r.srv.Close()
	}
	return first
}
