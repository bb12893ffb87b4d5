// Command perfpredd serves trained surrogate predictors over HTTP.
//
// It loads every *.json artifact in -models into a versioned in-memory
// registry and serves:
//
//	POST /v1/predict   score one row or a batch (micro-batched)
//	GET  /v1/models    list loaded models (kind, family tag, schema) and the catalog generation
//	GET  /v1/report    live ServeReport snapshot
//	POST /admin/reload atomically reload the model directory
//	GET  /metrics      obs metrics, Prometheus text (plus /debug/vars, /debug/pprof)
//	GET  /healthz      liveness probe
//
// SIGHUP reloads the model directory in place (a failed reload keeps
// the previous catalog serving). SIGTERM/SIGINT drain gracefully: the
// listener stops accepting, in-flight and queued requests are answered,
// then a final ServeReport is written to -report if set.
//
//	predict -train -family "Pentium D" -model LR-E -out models/pd-lre.json
//	perfpredd -models models -addr localhost:8091
//	curl -s localhost:8091/v1/predict -d '{"model":"pd-lre","row":[...]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfpred/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfpredd: ")
	addr := flag.String("addr", "localhost:8091", "listen address (port 0 picks a free port; see -addr-file)")
	models := flag.String("models", "models", "directory of *.json predictor artifacts")
	d := serve.DefaultConfig()
	queue := flag.Int("queue", d.Batcher.QueueDepth, "admission queue depth; a full queue sheds with 429")
	maxBatch := flag.Int("max-batch", d.Batcher.MaxBatch, "max rows coalesced into one kernel batch")
	workers := flag.Int("workers", d.Batcher.Workers, "batch worker goroutines (0 = GOMAXPROCS)")
	timeout := flag.Duration("request-timeout", d.RequestTimeout, "per-request prediction deadline")
	cacheEntries := flag.Int("cache-entries", d.CacheEntries, "prediction-cache capacity in entries")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight HTTP requests on shutdown")
	report := flag.String("report", "", "write a final ServeReport JSON here on shutdown")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	flag.Parse()

	cfg := serve.Config{
		ModelsDir: *models,
		Batcher: serve.BatcherConfig{
			QueueDepth: *queue,
			MaxBatch:   *maxBatch,
			Workers:    *workers,
		},
		RequestTimeout: *timeout,
		CacheEntries:   *cacheEntries,
	}
	if err := run(cfg, *addr, *addrFile, *report, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

func run(cfg serve.Config, addr, addrFile, report string, drainTimeout time.Duration) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	bound := ln.Addr().String()
	srv.SetAddr(bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			srv.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	log.Printf("serving models %v from %s on http://%s", srv.Registry().Names(), cfg.ModelsDir, bound)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if gen, err := srv.Reload(); err != nil {
					log.Printf("reload failed, previous catalog still serving: %v", err)
				} else {
					log.Printf("reloaded generation %d: models %v", gen, srv.Registry().Names())
				}
				continue
			}
			log.Printf("%v: draining", sig)
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			err := hs.Shutdown(ctx)
			cancel()
			// HTTP handlers have returned (or the drain timed out); now
			// drain the batcher so every admitted request is answered.
			srv.Close()
			if report != "" {
				if werr := srv.Report().WriteFile(report); werr != nil {
					log.Printf("write report: %v", werr)
					if err == nil {
						err = werr
					}
				} else {
					log.Printf("wrote serve report to %s", report)
				}
			}
			if err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
			log.Print("drained cleanly")
			return nil
		case err := <-serveErr:
			srv.Close()
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}
