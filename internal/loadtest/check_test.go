package loadtest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

// evidence is everything check judges, built synthetically.
type evidence struct {
	cfg  Config
	fx   *fixture
	outs []outcome
	led  ledger
	rep  *Report
}

func replicaAddr(i int) string { return fmt.Sprintf("127.0.0.1:%d", 9100+i) }

// catalogKey is the poller's key for replica i: the gateway names the
// answering replica, a bare one is "".
func (e *evidence) catalogKey(i int) string {
	if len(e.rep.Replicas) < 2 {
		return ""
	}
	return replicaAddr(i)
}

// cleanEvidence is a synthetic fault-free run over n
// replicas (a gateway in front when n ≥ 2) that holds every invariant:
// one admin reload every replica acknowledged, two bit-exact 200s, both
// malformed-payload classes answered exactly, one shed, one client
// timeout, and an epilogue that reloaded every replica and moved the
// hot rows to the retrained artifact's goldens. Replica 0 did all the
// serving, and the heap held flat at 64 MiB over eight samples.
func cleanEvidence(n int) *evidence {
	fx := &fixture{models: []string{"m"}, golden: map[string][]float64{"m": {1, 2, 3}}}
	front := ""
	if n >= 2 {
		front = replicaAddr(0)
	}
	ok := func(seq int, rows []int, preds ...float64) outcome {
		ev := Event{Seq: seq, Model: "m", RowIdxs: rows, Single: len(rows) == 1}
		return outcome{ev: ev, status: 200, preds: preds, replica: front, route: gateway.RoutePrimary}
	}
	e := &evidence{
		cfg: Config{Seed: 1, Replicas: n},
		fx:  fx,
		outs: []outcome{
			{ev: Event{Seq: 0, Reload: true, AdminHTTP: true}, status: 200},
			ok(1, []int{0}, 1),
			ok(2, []int{1, 2}, 2, 3),
			{ev: Event{Seq: 3, Model: "m", RowIdxs: []int{0}, Payload: PayloadBadWidth}, status: 400},
			{ev: Event{Seq: 4, Model: "ghost", RowIdxs: []int{0}, Payload: PayloadUnknownModel}, status: 404},
			{ev: Event{Seq: 5, Model: "m", RowIdxs: []int{1}}, status: 429},
			{ev: Event{Seq: 6, Model: "m", RowIdxs: []int{2}, Timeout: time.Millisecond}, timedOut: true},
		},
		led: ledger{catalogs: map[string][]catalog{}, acks: map[string]int{}, epi: &epilogue{
			EpilogueStats: EpilogueStats{Probes: 4, ReloadAttempts: n, ReloadsOK: n},
			old:           []float64{1, 2}, new: []float64{5, 6},
			pre: []float64{1, 2}, post: []float64{5, 6},
		}, heap: make([]uint64, minHeapSamples)},
		rep: &Report{},
	}
	for i := 0; i < n; i++ {
		e.rep.Replicas = append(e.rep.Replicas, &serve.Report{
			Version: serve.ReportVersion, Addr: replicaAddr(i), Generation: 3,
		})
		e.led.acks[replicaAddr(i)] = 2 // the admin reload and the epilogue's
	}
	for i := 0; i < n; i++ {
		e.led.catalogs[e.catalogKey(i)] = []catalog{{1, fx.models}, {2, fx.models}}
	}
	for i := range e.led.heap {
		e.led.heap[i] = 64 << 20
	}
	r0 := e.rep.Replicas[0]
	r0.Requests, r0.Predictions, r0.Shed = 5, 1, 1
	r0.Cache.Lookups, r0.Cache.Hits, r0.Cache.Misses = 4, 2, 2
	if n >= 2 {
		gw := &gateway.Report{Version: gateway.ReportVersion}
		for i := 0; i < n; i++ {
			gw.Replicas = append(gw.Replicas, gateway.ReplicaReport{Addr: replicaAddr(i), Healthy: true})
		}
		e.rep.Gateway = gw
	}
	return e
}

// TestCheckCatchesEveryViolationClass drives the checker offline: a
// clean synthetic run reports nothing, and each planted violation is
// reported, for a bare daemon and for three replicas behind a gateway.
func TestCheckCatchesEveryViolationClass(t *testing.T) {
	cases := []struct {
		name    string
		fronted bool // a gateway-only invariant
		plant   func(e *evidence)
		want    string
	}{
		{"clean", false, func(*evidence) {}, ""},
		{"200 differs from golden", false, func(e *evidence) { e.outs[1].preds[0] = 1.5 }, "offline golden 1"},
		{"malformed payload answered with the wrong 4xx", false, func(e *evidence) { e.outs[3].status = 404 }, "want exactly 400"},
		{"500 with faults off", false, func(e *evidence) { e.outs[5].status = 500 }, "500 without faults armed"},
		{"generation regression on one replica", false, func(e *evidence) {
			k := e.catalogKey(len(e.rep.Replicas) - 1)
			e.led.catalogs[k] = append(e.led.catalogs[k], catalog{1, e.fx.models})
		}, "generation moved backwards: 2 then 1"},
		{"torn catalog", false, func(e *evidence) { e.led.catalogs[e.catalogKey(0)][1].models = nil }, "catalog at generation 2 served []"},
		{"final generation is not 1 + acknowledged reloads", false, func(e *evidence) {
			e.rep.Replicas[len(e.rep.Replicas)-1].Generation = 2
		}, "want 3 (1 + its 2 acknowledged reloads)"},
		{"shed below observed 429s", false, func(e *evidence) { e.rep.Replicas[0].Shed = 0 }, "shed without telling the client"},
		{"shed above 429s plus slack", false, func(e *evidence) { e.rep.Replicas[0].Shed = 3 }, "requests dropped without a 429"},
		{"served rows below rows in 200s", false, func(e *evidence) { e.rep.Replicas[0].Predictions = 0 }, "clients saw 3 rows in 200s"},
		{"cache hits + misses != lookups", false, func(e *evidence) { e.rep.Replicas[0].Cache.Lookups++ }, "!= lookups(5)"},
		{"faults firing with faults off", false, func(e *evidence) {
			e.rep.Replicas[len(e.rep.Replicas)-1].FaultsInjected = 1
		}, "faults disabled but 1 faults fired"},
		{"stale hit across the epilogue's generation boundary", false, func(e *evidence) { e.led.epi.post[1] = e.led.epi.old[1] }, "crossed the generation boundary"},
		{"heap growing through the replay", false, func(e *evidence) { e.led.heap[len(e.led.heap)-1] *= 2 }, "last-quarter peak HeapInuse 128.0 MiB exceeds first-quarter peak 64.0 MiB"},
		{"affinity spread above its allowance", true, func(e *evidence) {
			o := e.outs[1]
			o.ev.Seq, o.replica = 7, replicaAddr(1)
			e.outs = append(e.outs, o)
		}, "affinity broken: key m/0 landed on 2 replicas"},
		{"eject without a kill", true, func(e *evidence) {
			e.rep.Gateway.Ejects, e.rep.Gateway.Replicas[1].Ejects = 1, 1
		}, "no replica was killed but the gateway ejected"},
		{"kill with no eject", true, func(e *evidence) {
			e.cfg.ReplicaKill, e.rep.ReplicaKills, e.rep.ReplicaRestarts = true, 1, 1
		}, "never ejected it"},
		{"kill with no readmit", true, func(e *evidence) {
			e.cfg.ReplicaKill, e.rep.ReplicaKills, e.rep.ReplicaRestarts = true, 1, 1
			e.rep.Gateway.Ejects, e.rep.Gateway.Replicas[1].Ejects = 1, 1
		}, "never readmitted it"},
	}
	for _, n := range []int{1, 3} {
		for _, tc := range cases {
			if tc.fronted && n < 2 {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				e := cleanEvidence(n)
				tc.plant(e)
				check(e.cfg, e.fx, e.outs, &e.led, e.rep)
				if tc.want == "" {
					if !e.rep.OK() {
						t.Fatalf("clean run reported %q", e.rep.Violations)
					}
					return
				}
				for _, v := range e.rep.Violations {
					if strings.Contains(v, tc.want) {
						return
					}
				}
				t.Fatalf("planted violation not reported (want %q); got %q", tc.want, e.rep.Violations)
			})
		}
	}
}
