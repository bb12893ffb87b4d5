package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// MetricsHandler returns an http.Handler serving the observability
// surface: the registry in Prometheus text format on /metrics, the
// standard library's expvar handler (memstats, cmdline) on /debug/vars,
// and pprof on /debug/pprof/. Each handler serves its own registry, so
// several servers in one process never show each other's metrics.
func MetricsHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w) //nolint:errcheck // the client went away
	})
	return mux
}

// WritePrometheus renders a snapshot of the registry in the Prometheus
// text exposition format, version 0.0.4: each counter as a counter, each
// gauge as a gauge, and each histogram as a summary with quantile 0.5,
// 0.95 and 0.99 samples plus _sum and _count. A metric's exposed name is
// "perfpred_" + its registry name with every character outside
// [a-zA-Z0-9_:] replaced by '_' (so "serve.latency_seconds" becomes
// perfpred_serve_latency_seconds). Families are sorted by name within
// each kind.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, k := range sortedKeys(snap.Counters) {
		name := promName(k)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, snap.Counters[k])
	}
	for _, k := range sortedKeys(snap.Gauges) {
		name := promName(k)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(snap.Gauges[k]))
	}
	for _, k := range sortedKeys(snap.Histograms) {
		h, name := snap.Histograms[k], promName(k)
		qs := [3]float64{h.P50, h.P95, h.P99}
		if h.Count == 0 {
			qs = [3]float64{math.NaN(), math.NaN(), math.NaN()}
		}
		fmt.Fprintf(bw, "# TYPE %s summary\n", name)
		for i, q := range [3]string{"0.5", "0.95", "0.99"} {
			fmt.Fprintf(bw, "%s{quantile=\"%s\"} %s\n", name, q, promFloat(qs[i]))
		}
		fmt.Fprintf(bw, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count)
	}
	return bw.Flush()
}

// promName maps a registry name to a valid Prometheus metric name.
func promName(name string) string {
	return "perfpred_" + strings.Map(func(c rune) rune {
		if c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			return c
		}
		return '_'
	}, name)
}

// promFloat formats a sample value; NaN and ±Inf come out as the
// exposition format spells them (NaN, +Inf, -Inf).
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StartMetricsServer listens on addr (e.g. "localhost:6060") and serves
// MetricsHandler in a background goroutine. It returns the bound address
// (useful with ":0") and a shutdown func. The server lives until the
// process exits or close is called; serving errors after a successful
// bind are dropped — metrics are best-effort observability, never a
// reason to kill an experiment.
func StartMetricsServer(addr string, reg *Registry) (bound net.Addr, close func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: metrics server: %w", err)
	}
	srv := &http.Server{Handler: MetricsHandler(reg)}
	go srv.Serve(ln) //nolint:errcheck // best-effort background server
	return ln.Addr(), srv.Close, nil
}
