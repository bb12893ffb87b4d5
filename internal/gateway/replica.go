package gateway

import (
	"sync"
	"sync/atomic"

	"perfpred/internal/predcache"
)

// replica is one upstream perfpredd as the gateway tracks it: a
// rendezvous identity and a health-state machine fed by both active
// probes and passive transport signals.
//
// The state machine has two states. A healthy replica is ejected after
// FailThreshold consecutive failures (probe failures and request
// transport errors both count; any success resets the streak). An
// ejected replica takes no traffic and is probed on the same cadence;
// ReadmitThreshold consecutive probe successes readmit it. Only probes
// can readmit — a replica never re-enters rotation on hope.
type replica struct {
	idx  int
	addr string
	base string // "http://" + addr
	// id is the replica's fixed rendezvous identity; routing scores are
	// Combine(id, requestKey), so a replica's share of the keyspace is
	// stable across gateway restarts with the same address set.
	id uint64

	requests      atomic.Int64
	transportErrs atomic.Int64

	// healthy is read lock-free by the request path; it is written only
	// under mu, which serializes state transitions.
	healthy    atomic.Bool
	mu         sync.Mutex
	fails      int // consecutive failures while healthy
	okays      int // consecutive probe successes while ejected
	ejects     int64
	readmits   int64
	probes     int64
	probeFails int64
}

func newReplica(idx int, addr string) *replica {
	r := &replica{
		idx:  idx,
		addr: addr,
		base: "http://" + addr,
		id:   predcache.HashString(addr),
	}
	r.healthy.Store(true)
	return r
}

func (r *replica) isHealthy() bool { return r.healthy.Load() }

func (r *replica) report() ReplicaReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaReport{
		Addr:            r.addr,
		Healthy:         r.healthy.Load(),
		Requests:        r.requests.Load(),
		TransportErrors: r.transportErrs.Load(),
		Ejects:          r.ejects,
		Readmits:        r.readmits,
		Probes:          r.probes,
		ProbeFailures:   r.probeFails,
	}
}

// recordProbe feeds one active-probe outcome into rep's state machine.
func (g *Gateway) recordProbe(rep *replica, ok bool) {
	g.met.probes.Inc()
	if !ok {
		g.met.probeFails.Inc()
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.probes++
	if !ok {
		rep.probeFails++
	}
	if rep.healthy.Load() {
		if ok {
			rep.fails = 0
			return
		}
		rep.fails++
		if rep.fails >= g.cfg.FailThreshold {
			g.ejectLocked(rep)
		}
		return
	}
	// Ejected: successes accumulate toward readmission, a failure resets
	// the streak.
	if ok {
		rep.okays++
		if rep.okays >= g.cfg.ReadmitThreshold {
			g.readmitLocked(rep)
		}
		return
	}
	rep.okays = 0
}

// noteTransportError feeds a request-path transport failure (connection
// refused, reset, torn body) into rep's state machine. Only call invokes
// it, and never for a failure whose context was already done.
func (g *Gateway) noteTransportError(rep *replica) {
	rep.transportErrs.Add(1)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.healthy.Load() {
		return
	}
	rep.fails++
	if rep.fails >= g.cfg.FailThreshold {
		g.ejectLocked(rep)
	}
}

// noteTransportOK resets rep's failure streak: any HTTP response —
// whatever its status — proves transport to the replica works.
func (g *Gateway) noteTransportOK(rep *replica) {
	rep.mu.Lock()
	if rep.healthy.Load() {
		rep.fails = 0
	}
	rep.mu.Unlock()
}

// ejectLocked transitions rep healthy → ejected. rep.mu must be held.
func (g *Gateway) ejectLocked(rep *replica) {
	rep.healthy.Store(false)
	rep.fails = 0
	rep.okays = 0
	rep.ejects++
	g.met.ejects.Inc()
}

// readmitLocked transitions rep ejected → healthy. rep.mu must be held.
func (g *Gateway) readmitLocked(rep *replica) {
	rep.healthy.Store(true)
	rep.fails = 0
	rep.okays = 0
	rep.readmits++
	g.met.readmits.Inc()
}
