package loadtest

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"perfpred/internal/faultinject"
	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

// ReportVersion is the chaos report schema version.
const ReportVersion = 3

// ReloadStats summarizes the run's reload events.
type ReloadStats struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
}

// Report is the invariant report of one chaos/soak run — everything
// needed to judge the run and to reproduce it (the seed and schedule
// hash) from the artifact alone.
type Report struct {
	Version      int     `json:"version"`
	Seed         int64   `json:"seed"`
	Faults       bool    `json:"faults"`
	ScheduleHash uint64  `json:"schedule_hash"`
	Events       int     `json:"events"`
	Requests     int     `json:"requests"`
	DurationSecs float64 `json:"duration_seconds"`

	// StatusCounts counts terminal HTTP statuses of predict requests,
	// keyed by code ("200", "429", ...).
	StatusCounts map[string]int `json:"status_counts"`
	// ClientTimeouts counts requests abandoned by their own scheduled
	// client-side deadline (an allowed terminal outcome).
	ClientTimeouts int `json:"client_timeouts"`

	Reloads ReloadStats `json:"reloads"`

	// BitCompared / BitMismatches count golden comparisons: every
	// prediction in every 200 is compared for float64 equality against
	// offline scoring of the same artifact. Any mismatch is a violation.
	BitCompared   int `json:"bit_compared"`
	BitMismatches int `json:"bit_mismatches"`

	// GenerationFirst/Last bracket the registry generations the catalog
	// poller observed across replicas; GenerationRegressions counts
	// observations where one replica's generation moved backwards (must
	// be 0).
	GenerationFirst       int64 `json:"generation_first"`
	GenerationLast        int64 `json:"generation_last"`
	GenerationRegressions int   `json:"generation_regressions"`

	// FaultStats is the injector's per-point call/fire census (empty
	// when faults are disabled).
	FaultStats map[string]faultinject.PointStats `json:"fault_stats,omitempty"`

	// Replicas are the per-replica final serve reports, in configuration
	// order (one for a bare daemon).
	Replicas []*serve.Report `json:"replicas"`
	// Gateway is the front tier's final report (nil for a bare daemon).
	Gateway *gateway.Report `json:"gateway,omitempty"`
	// ReplicaKills / ReplicaRestarts count the kill choreography's
	// completed crashes and rebinds.
	ReplicaKills    int `json:"replica_kills,omitempty"`
	ReplicaRestarts int `json:"replica_restarts,omitempty"`
	// AffinityKeys counts distinct (model, row) keys observed on
	// primary-routed single-row 200s through the gateway;
	// AffinityMaxSpread is the largest number of distinct replicas any
	// one key landed on (1 = perfect cache affinity; 2 is allowed only
	// across a kill/restart).
	AffinityKeys      int `json:"affinity_keys,omitempty"`
	AffinityMaxSpread int `json:"affinity_max_spread,omitempty"`

	// Epilogue records the run's generation-boundary epilogue.
	Epilogue *EpilogueStats `json:"generation_epilogue,omitempty"`

	// Violations lists every invariant breach, capped at maxViolations
	// entries. An empty list is a passing run.
	Violations []string `json:"violations"`
}

// OK reports whether the run held every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// maxViolations bounds how many violation strings a report carries; a
// systemic breach would otherwise produce one line per request.
const maxViolations = 25

type violations struct {
	list    []string
	dropped int
}

func (v *violations) addf(format string, args ...any) {
	if len(v.list) >= maxViolations {
		v.dropped++
		return
	}
	v.list = append(v.list, fmt.Sprintf(format, args...))
}

// ledger is the evidence a run gathers besides its outcomes and final
// reports.
type ledger struct {
	// catalogs are the poller's /v1/models observations per answering
	// replica, in observation order.
	catalogs map[string][]catalog
	// acks counts the reloads each replica (by address) acknowledged,
	// epilogue reloads included.
	acks map[string]int
	// epi is the generation-boundary epilogue's evidence (nil when the
	// run had none).
	epi *epilogue
}

// catalog is one observed /v1/models answer.
type catalog struct {
	gen    int64
	models []string
}

// report snapshots the drained tier's final reports and checks the run.
func (h *harness) report(inj *faultinject.Injector, elapsed time.Duration) *Report {
	rep := &Report{
		Version:         ReportVersion,
		Seed:            h.cfg.Seed,
		Faults:          h.cfg.Faults,
		ScheduleHash:    h.sched.Hash(),
		Events:          len(h.sched.Events),
		DurationSecs:    elapsed.Seconds(),
		ReplicaKills:    h.top.kills,
		ReplicaRestarts: h.top.restarts,
	}
	if inj != nil {
		rep.FaultStats = inj.Stats()
	}
	for _, sr := range h.top.reps {
		rep.Replicas = append(rep.Replicas, sr.srv.Report())
	}
	if h.top.gw != nil {
		rep.Gateway = h.top.gw.Report()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.led.epi != nil {
		rep.Epilogue = &h.led.epi.EpilogueStats
	}
	check(h.cfg, h.fx, h.outs, &h.led, rep)
	return rep
}

// check judges one run at any replica count: outs are the schedule's
// outcomes, rep carries the final reports (Replicas, plus Gateway and
// the kill counts when a gateway fronts them) and led the side
// evidence. It fills rep's derived counts and Violations. It reads
// nothing live, so it can be driven offline with synthetic evidence.
//
// Every tier-wide check treats a missing gateway as one whose retry,
// error and fault counters are zero; only the gateway
// report's own validity, the kill choreography and cache affinity are
// checked for a fronted tier alone.
func check(cfg Config, fx *fixture, outs []outcome, led *ledger, rep *Report) {
	var v violations
	rep.StatusCounts = map[string]int{}
	rows200, admitted := 0, 0
	for i := range outs {
		out := &outs[i]
		if out.ev.Reload {
			checkReload(cfg, rep, &v, out)
			continue
		}
		rep.Requests++
		checkPredict(cfg, fx, rep, &v, out, &rows200, &admitted)
	}

	// Catalogs, per replica: replicas reload independently, so
	// monotonicity only holds within one replica's sequence.
	for name, seq := range led.catalogs {
		for i, c := range seq {
			if !slices.Equal(c.models, fx.models) {
				v.addf("replica %q catalog at generation %d served %v, want %v", name, c.gen, c.models, fx.models)
			}
			if i > 0 && c.gen < seq[i-1].gen {
				rep.GenerationRegressions++
				v.addf("replica %q generation moved backwards: %d then %d", name, seq[i-1].gen, c.gen)
			}
		}
		if first := seq[0].gen; rep.GenerationFirst == 0 || first < rep.GenerationFirst {
			rep.GenerationFirst = first
		}
		rep.GenerationLast = max(rep.GenerationLast, seq[len(seq)-1].gen)
	}
	observed429 := int64(rep.StatusCounts["429"])
	if led.epi != nil {
		checkEpilogue(led.epi, &v)
		// Epilogue probes observe (and retry) their own 429s.
		observed429 += int64(led.epi.Observed429s)
	}

	gw := rep.Gateway
	if gw == nil {
		gw = &gateway.Report{}
	}
	faults := gw.FaultsInjected
	var shed, served, requests, lookups, hits int64
	for i, sr := range rep.Replicas {
		if err := sr.Validate(); err != nil {
			v.addf("replica %d final serve report invalid: %v", i, err)
		}
		// A replica's generation is 1 (initial load) plus the reloads it
		// acknowledged itself — a killed replica misses the fan-outs
		// broadcast while it was down.
		if want := 1 + int64(led.acks[sr.Addr]); sr.Generation != want {
			v.addf("replica %d (%s) generation %d, want %d (1 + its %d acknowledged reloads)",
				i, sr.Addr, sr.Generation, want, led.acks[sr.Addr])
		}
		shed += sr.Shed
		faults += sr.FaultsInjected
		// Every row returned in a 200 was scored by a batcher
		// (predictions) or served from a cache (hits).
		served += sr.Predictions + sr.Cache.Hits
		requests += sr.Requests
		// Post-drain, every lookup has resolved as exactly one hit or
		// miss.
		cs := sr.Cache
		lookups += cs.Lookups
		hits += cs.Hits
		if cs.Hits+cs.Misses != cs.Lookups {
			v.addf("replica %d cache hits(%d)+misses(%d) != lookups(%d)", i, cs.Hits, cs.Misses, cs.Lookups)
		}
	}
	if !cfg.Faults && faults != 0 {
		v.addf("faults disabled but %d faults fired", faults)
	}
	// Every wire-observed 429 was counted by a replica's batcher, the
	// tier's only shed point. The converse allows slack for clients that
	// abandoned their request at its own deadline (the 429 was sent but
	// never read) and for retried attempts (a replica may count a shed
	// whose 429 never reached the gateway before the connection broke).
	if shed < observed429 {
		v.addf("tier shed %d but %d requests saw 429 — shed without telling the client", shed, observed429)
	} else if slack := observed429 + int64(rep.ClientTimeouts) + gw.Retries; shed > slack {
		v.addf("tier shed %d exceeds %d observed 429s + %d client timeouts + %d retries — requests dropped without a 429",
			shed, observed429, rep.ClientTimeouts, gw.Retries)
	}
	if served < int64(rows200) {
		v.addf("replicas served %d rows but clients saw %d rows in 200s", served, rows200)
	}
	// Every admitted-class answer reached a replica, except the ones the
	// gateway produced itself (its errors).
	if reached := int64(admitted) - gw.Errors; requests < reached {
		v.addf("replica requests %d < %d answers that must have reached a replica", requests, reached)
	}
	if lookups == 0 {
		v.addf("no lookup ever reached the replicas' caches")
	} else if hits == 0 {
		v.addf("duplicate-heavy schedule recorded zero cache hits over %d lookups", lookups)
	}
	if rep.Gateway != nil {
		checkGateway(cfg, outs, rep, &v)
	}

	if v.dropped > 0 {
		v.list = append(v.list, fmt.Sprintf("... and %d more violations", v.dropped))
	}
	rep.Violations = v.list
	if rep.Violations == nil {
		rep.Violations = []string{}
	}
}

// checkReload folds one reload outcome.
func checkReload(cfg Config, rep *Report, v *violations, out *outcome) {
	rep.Reloads.Attempted++
	switch {
	case out.status == 200:
		rep.Reloads.OK++
	case out.status == 500:
		rep.Reloads.Failed++
		// Kill runs legitimately fail fan-outs while the killed replica
		// is down; otherwise a failed reload needs armed faults.
		if !cfg.Faults && !cfg.ReplicaKill {
			v.addf("reload %d failed without faults armed: %s", out.ev.Seq, out.err)
		}
	default:
		v.addf("reload %d: unexpected terminal state status=%d err=%q", out.ev.Seq, out.status, out.err)
	}
}

// checkPredict folds one predict outcome, verifying its terminal class
// against the payload contract and bit-comparing 200s to the goldens.
func checkPredict(cfg Config, fx *fixture, rep *Report, v *violations, out *outcome, rows200, admitted *int) {
	ev := out.ev
	if out.status == 0 {
		if out.timedOut && ev.Timeout > 0 {
			rep.ClientTimeouts++
			return
		}
		v.addf("request %d (%s %s): no terminal response: %s", ev.Seq, ev.Model, ev.Payload, out.err)
		return
	}
	rep.StatusCounts[strconv.Itoa(out.status)]++
	switch out.status {
	case 200, 429, 503, 504, 500:
		*admitted++
	}

	want, exact := expectedStatus(ev.Payload)
	if exact {
		if out.status != want {
			v.addf("request %d: %s payload answered %d, want exactly %d", ev.Seq, ev.Payload, out.status, want)
		}
		return
	}
	switch out.status {
	case 200:
	case 429, 503, 504:
		return
	case 500:
		if !cfg.Faults {
			v.addf("request %d: 500 without faults armed", ev.Seq)
		}
		return
	default:
		v.addf("request %d: unexpected status %d for ok payload", ev.Seq, out.status)
		return
	}

	// 200: every prediction must bit-match offline scoring.
	golden := fx.golden[ev.Model]
	if len(out.preds) != len(ev.RowIdxs) {
		v.addf("request %d: 200 carried %d predictions for %d rows", ev.Seq, len(out.preds), len(ev.RowIdxs))
		return
	}
	*rows200 += len(out.preds)
	for j, idx := range ev.RowIdxs {
		rep.BitCompared++
		if out.preds[j] != golden[idx] {
			rep.BitMismatches++
			v.addf("request %d: model %s row %d predicted %v, offline golden %v",
				ev.Seq, ev.Model, idx, out.preds[j], golden[idx])
		}
	}
}

// expectedStatus returns the exact status a malformed payload must map
// to; exact=false means the payload is well-formed and load-dependent
// outcomes apply.
func expectedStatus(p PayloadKind) (status int, exact bool) {
	switch p {
	case PayloadBadWidth, PayloadBadType, PayloadUnknownCategory:
		return 400, true
	case PayloadUnknownModel:
		return 404, true
	}
	return 0, false
}

// checkEpilogue judges the generation-boundary evidence: every hot row
// matches the served artifact's goldens before the reload and the
// retrained artifact's after it. A cache hit crossing the boundary
// would serve the old model's bits and fail here.
func checkEpilogue(e *epilogue, v *violations) {
	for i, got := range e.pre {
		if math.IsNaN(got) {
			v.addf("epilogue pre-reload: hot row %d never answered 200 in %d attempts", i, epilogueAttempts)
		} else if got != e.old[i] {
			v.addf("epilogue pre-reload: hot row %d predicted %v, offline golden %v", i, got, e.old[i])
		}
	}
	if e.failed != "" {
		v.addf("epilogue: %s", e.failed)
		return
	}
	if slices.Equal(e.old, e.new) {
		v.addf("epilogue has no teeth: retrained artifact predicts identically on every hot row")
		return
	}
	for i, got := range e.post {
		switch {
		case got == e.new[i]:
		case math.IsNaN(got):
			v.addf("epilogue post-reload: hot row %d never answered 200 in %d attempts", i, epilogueAttempts)
		case got == e.old[i]:
			v.addf("cache hit crossed the generation boundary: hot row %d served the pre-reload model's bits (%v) after a successful reload", i, got)
		default:
			v.addf("epilogue post-reload: hot row %d predicted %v, new-artifact golden %v", i, got, e.new[i])
		}
	}
}

// checkGateway folds the invariants only a fronted tier has: a valid
// gateway report, the kill/restart choreography's health transitions,
// and cache affinity — hot single-row requests landing on exactly one
// replica (two across a kill).
func checkGateway(cfg Config, outs []outcome, rep *Report, v *violations) {
	gw := rep.Gateway
	if err := gw.Validate(); err != nil {
		v.addf("final gateway report invalid: %v", err)
	}

	// Kill choreography: the crash and rebind must both have happened,
	// and the gateway must have seen them (eject on the crash, readmit
	// after the rebind). Without a kill the clean topology must never
	// eject anyone (no fault point touches health probes).
	if cfg.ReplicaKill {
		if rep.ReplicaKills != 1 || rep.ReplicaRestarts != 1 {
			v.addf("kill choreography incomplete: %d kills, %d restarts (want 1 and 1)",
				rep.ReplicaKills, rep.ReplicaRestarts)
		}
		if gw.Ejects == 0 {
			v.addf("replica was killed but the gateway never ejected it")
		}
		if gw.Readmits == 0 {
			v.addf("replica was restarted but the gateway never readmitted it")
		}
	} else if gw.Ejects != 0 {
		v.addf("no replica was killed but the gateway ejected %d time(s)", gw.Ejects)
	}

	// Cache affinity: all primary-routed single-row 200s of one
	// (model, row) key must come from one replica — two across a
	// kill/restart (the key's rendezvous fallback). Retried answers are
	// excluded: they land elsewhere by design.
	spread := map[string]map[string]bool{}
	for i := range outs {
		out := &outs[i]
		ev := out.ev
		if ev.Reload || out.status != 200 || !ev.Single || ev.Payload != PayloadOK {
			continue
		}
		if out.route != gateway.RoutePrimary || out.replica == "" {
			continue
		}
		key := fmt.Sprintf("%s/%d", ev.Model, ev.RowIdxs[0])
		if spread[key] == nil {
			spread[key] = map[string]bool{}
		}
		spread[key][out.replica] = true
	}
	allowed := 1
	if cfg.ReplicaKill {
		allowed = 2
	}
	rep.AffinityKeys = len(spread)
	for key, reps := range spread {
		if n := len(reps); n > rep.AffinityMaxSpread {
			rep.AffinityMaxSpread = n
		}
		if len(reps) > allowed {
			names := make([]string, 0, len(reps))
			for r := range reps {
				names = append(names, r)
			}
			v.addf("affinity broken: key %s landed on %d replicas %v (allowed %d)", key, len(reps), names, allowed)
		}
	}
	if rep.AffinityKeys == 0 {
		v.addf("no primary-routed single-row 200s observed — affinity invariant is vacuous")
	}
}
