// Command perfpredgw fronts a set of perfpredd replicas with a
// cache-affine gateway.
//
// It routes POST /v1/predict across -replicas by rendezvous hashing on
// the request's (model, rows) content — the same row hash the replicas'
// prediction caches key on — so identical design points always land on
// the same replica and its cache stays hot. Every replica, healthy or
// ejected, is probed once per -probe-interval and ejected/readmitted on
// the results; a transport failure retries the request on the next
// healthy replica in rendezvous order, while any HTTP response, whatever
// its status, is relayed as the answer. The gateway sheds nothing
// itself: each replica's admission queue is the tier's only shed point,
// and its 429s pass through untouched.
//
//	POST /v1/predict   route one prediction (response relayed byte-for-byte)
//	GET  /v1/models    proxy to a healthy replica
//	GET  /v1/report    proxy to a healthy replica (that replica's serve.Report)
//	POST /admin/reload fan the reload out to every replica
//	GET  /gw/report    live gateway.Report snapshot
//	GET  /metrics      gateway metrics, Prometheus text (plus /debug/vars, /debug/pprof)
//	GET  /healthz      gateway liveness (503 when no replica is healthy)
//
// SIGTERM/SIGINT drain gracefully, mirroring the daemon's contract: the
// listener stops accepting, in-flight requests are answered, probes
// stop, then a final gateway.Report is written to -report if set.
//
//	perfpredd -models models -addr localhost:8091 &
//	perfpredd -models models -addr localhost:8092 &
//	perfpredgw -replicas localhost:8091,localhost:8092 -addr localhost:8090
//	curl -s localhost:8090/v1/predict -d '{"model":"pd-lre","row":[...]}'
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
	"strings"
	"syscall"
	"time"

	"perfpred/internal/gateway"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfpredgw: ")
	addr := flag.String("addr", "localhost:8090", "listen address (port 0 picks a free port; see -addr-file)")
	replicas := flag.String("replicas", "", "comma-separated perfpredd replica addresses (required)")
	d := gateway.DefaultConfig()
	probeInterval := flag.Duration("probe-interval", d.ProbeInterval, "health-probe spacing to every replica, healthy or ejected")
	probeTimeout := flag.Duration("probe-timeout", d.ProbeTimeout, "per-probe deadline")
	failThreshold := flag.Int("fail-threshold", d.FailThreshold, "consecutive failures that eject a replica")
	readmitThreshold := flag.Int("readmit-threshold", d.ReadmitThreshold, "consecutive probe successes that readmit a replica")
	timeout := flag.Duration("request-timeout", d.RequestTimeout, "end-to-end deadline per proxied request")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight HTTP requests on shutdown")
	report := flag.String("report", "", "write a final gateway report JSON here on shutdown")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	flag.Parse()

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		log.Fatal("at least one -replicas address is required")
	}
	cfg := gateway.Config{
		Replicas:         reps,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		FailThreshold:    *failThreshold,
		ReadmitThreshold: *readmitThreshold,
		RequestTimeout:   *timeout,
	}
	if err := run(cfg, *addr, *addrFile, *report, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

func run(cfg gateway.Config, addr, addrFile, report string, drainTimeout time.Duration) error {
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		gw.Close()
		return err
	}
	bound := ln.Addr().String()
	gw.SetAddr(bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			gw.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	log.Printf("fronting %d replicas %v on http://%s", len(cfg.Replicas), cfg.Replicas, bound)

	hs := &http.Server{Handler: gw.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		log.Printf("%v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err := hs.Shutdown(ctx)
		cancel()
		// HTTP handlers have returned (or the drain timed out); stop the
		// probe loops and settle the in-flight census before reporting.
		gw.Close()
		if report != "" {
			if werr := gw.Report().WriteFile(report); werr != nil {
				log.Printf("write report: %v", werr)
				if err == nil {
					err = werr
				}
			} else {
				log.Printf("wrote gateway report to %s", report)
			}
		}
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		log.Print("drained cleanly")
		return nil
	case err := <-serveErr:
		gw.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
