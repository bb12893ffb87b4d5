package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/obs"
	"perfpred/internal/predcache"
)

// replica is one upstream perfpredd as the gateway tracks it: a
// rendezvous identity, an in-flight gauge, and a health-state machine
// fed by both active probes and passive transport signals.
//
// The state machine has two states. A healthy replica is ejected after
// FailThreshold consecutive failures (probe failures and request
// transport errors both count; any success resets the streak). An
// ejected replica takes no traffic and is probed with doubling backoff;
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

	inflight      atomic.Int64
	requests      atomic.Int64
	transportErrs atomic.Int64

	mu sync.Mutex
	// healthy mirrors healthyA; healthyA gives the request path a
	// lock-free read, mu serializes transitions.
	healthy    bool
	healthyA   atomic.Bool
	fails      int // consecutive failures while healthy
	okays      int // consecutive probe successes while ejected
	backoff    time.Duration
	ejects     int64
	readmits   int64
	probes     int64
	probeFails int64
}

func newReplica(idx int, addr string) *replica {
	r := &replica{
		idx:     idx,
		addr:    addr,
		base:    "http://" + addr,
		id:      predcache.HashString(addr),
		healthy: true,
	}
	r.healthyA.Store(true)
	return r
}

func (r *replica) isHealthy() bool { return r.healthyA.Load() }

// acquire takes one in-flight slot, failing when the replica is at cap.
func (r *replica) acquire(maxInFlight int) bool {
	if r.inflight.Add(1) > int64(maxInFlight) {
		r.inflight.Add(-1)
		return false
	}
	return true
}

func (r *replica) release() { r.inflight.Add(-1) }

// probeDelay returns how long the probe loop should wait before the
// next probe: the base interval while healthy, the current backoff
// while ejected.
func (r *replica) probeDelay(interval time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.healthy || r.backoff <= 0 {
		return interval
	}
	return r.backoff
}

func (r *replica) report() obs.ReplicaReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return obs.ReplicaReport{
		Addr:            r.addr,
		Healthy:         r.healthy,
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
	if rep.healthy {
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
	// Ejected: successes accumulate toward readmission, failures reset
	// the streak and double the probe backoff.
	if ok {
		rep.okays++
		if rep.okays >= g.cfg.ReadmitThreshold {
			g.readmitLocked(rep)
		}
		return
	}
	rep.okays = 0
	rep.backoff = min(2*rep.backoff, g.cfg.MaxProbeBackoff)
}

// noteTransportError feeds a request-path transport failure (connection
// refused, reset, torn body) into rep's state machine. Only call invokes
// it, and never for a failure whose context was already done.
func (g *Gateway) noteTransportError(rep *replica) {
	rep.transportErrs.Add(1)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.healthy {
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
	if rep.healthy {
		rep.fails = 0
	}
	rep.mu.Unlock()
}

// ejectLocked transitions rep healthy → ejected. rep.mu must be held.
func (g *Gateway) ejectLocked(rep *replica) {
	rep.healthy = false
	rep.healthyA.Store(false)
	rep.fails = 0
	rep.okays = 0
	rep.backoff = g.cfg.ProbeInterval
	rep.ejects++
	g.met.ejects.Inc()
}

// readmitLocked transitions rep ejected → healthy. rep.mu must be held.
func (g *Gateway) readmitLocked(rep *replica) {
	rep.healthy = true
	rep.healthyA.Store(true)
	rep.fails = 0
	rep.okays = 0
	rep.backoff = 0
	rep.readmits++
	g.met.readmits.Inc()
}
