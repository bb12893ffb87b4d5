package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

// replicaConfig is perfpredd's flag defaults written out, plus a
// 2048-entry prediction cache. The batcher values are pinned here
// rather than left to serve's zero-value defaults, which differ.
func replicaConfig(dir string) serve.Config {
	return serve.Config{
		ModelsDir: dir,
		Batcher: serve.BatcherConfig{
			QueueDepth: 256,
			MaxBatch:   64,
			MaxWait:    500 * time.Microsecond,
			Workers:    runtime.GOMAXPROCS(0),
		},
		RequestTimeout: 5 * time.Second,
		CacheEntries:   2048,
	}
}

// gatewayConfig is perfpredgw's flag defaults written out (hedging off).
func gatewayConfig(replicas []string) gateway.Config {
	return gateway.Config{
		Replicas:         replicas,
		ProbeInterval:    250 * time.Millisecond,
		ProbeTimeout:     time.Second,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		MaxInFlight:      256,
		HedgeDelay:       0,
		RequestTimeout:   15 * time.Second,
	}
}

// listener is one HTTP server bound to a loopback port.
type listener struct {
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	l := &listener{hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, ln.Addr().String(), nil
}

// stop closes the listener, waits for in-flight requests and for the
// serving goroutine to exit.
func (l *listener) stop(ctx context.Context) error {
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// topology is the serving tier of one workload: two replicas behind one
// gateway, in process, on loopback listeners.
type topology struct {
	srvs    []*serve.Server
	repLns  []*listener
	gw      *gateway.Gateway
	gwLn    *listener
	repAddr []string
	repURL  []string
	gwURL   string
}

// boot starts the topology over the models in dir. With a tracer, every
// layer's HTTP surface and the gateway's upstream transport are wrapped
// in spans.
func boot(dir string, tr *tracer) (*topology, error) {
	t := &topology{}
	fail := func(err error) (*topology, error) {
		t.close() //nolint:errcheck // already failing
		return nil, err
	}
	for i := 0; i < 2; i++ {
		srv, err := serve.New(replicaConfig(dir))
		if err != nil {
			return fail(fmt.Errorf("starting replica %d: %w", i, err))
		}
		t.srvs = append(t.srvs, srv)
		h := srv.Handler()
		if tr != nil {
			h = tr.handler("serve", h)
		}
		ln, addr, err := listen(h)
		if err != nil {
			return fail(err)
		}
		srv.SetAddr(addr)
		t.repLns = append(t.repLns, ln)
		t.repAddr = append(t.repAddr, addr)
		t.repURL = append(t.repURL, "http://"+addr)
	}
	cfg := gatewayConfig(t.repAddr)
	if tr != nil {
		// The same transport the gateway builds for itself when none is set.
		cfg.Transport = tr.transport(&http.Transport{
			MaxIdleConns:        4 * cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		})
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return fail(err)
	}
	t.gw = gw
	h := gw.Handler()
	if tr != nil {
		h = tr.handler("gateway", h)
	}
	ln, addr, err := listen(h)
	if err != nil {
		return fail(err)
	}
	gw.SetAddr(addr)
	t.gwLn = ln
	t.gwURL = "http://" + addr
	return t, nil
}

// waitReady posts body to url until it answers 200.
func waitReady(ctx context.Context, hc *http.Client, url string, body []byte) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("topology not ready at %s: %w", url, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// close drains the topology front to back: the gateway's listener, its
// in-flight requests and probes, then each replica's listener and
// batcher. Safe on a partly booted topology.
func (t *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if t.gwLn != nil {
		keep(t.gwLn.stop(ctx))
	}
	if t.gw != nil {
		t.gw.Close()
	}
	for _, ln := range t.repLns {
		keep(ln.stop(ctx))
	}
	for _, srv := range t.srvs {
		srv.Close()
	}
	return first
}
