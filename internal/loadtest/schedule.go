package loadtest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// PayloadKind classifies what a scheduled predict request carries. The
// chaos schedule mixes well-formed requests with every malformation
// class the serving front end must reject before admission, so a soak
// run continuously re-proves the client-error/server-error boundary.
type PayloadKind int

const (
	// PayloadOK is a well-formed request against a served model.
	PayloadOK PayloadKind = iota
	// PayloadBadWidth sends a row with one value too many — must be a
	// 400 regardless of load.
	PayloadBadWidth
	// PayloadBadType sends a string where the schema wants a number —
	// must be a 400.
	PayloadBadType
	// PayloadUnknownModel targets a model the registry does not serve —
	// must be a 404.
	PayloadUnknownModel
	// PayloadUnknownCategory sends a category with no numeric mapping to
	// a numeric-coded (LR) model — must be a 400 *before* admission
	// (the handler's encode step), never a scoring failure.
	PayloadUnknownCategory
)

// String names the payload kind for reports.
func (k PayloadKind) String() string {
	switch k {
	case PayloadOK:
		return "ok"
	case PayloadBadWidth:
		return "bad_width"
	case PayloadBadType:
		return "bad_type"
	case PayloadUnknownModel:
		return "unknown_model"
	case PayloadUnknownCategory:
		return "unknown_category"
	}
	return fmt.Sprintf("payload(%d)", int(k))
}

// Event is one scheduled action of a chaos run: either a predict
// request or a registry reload. Every field is decided by the schedule
// builder, never at replay time, so a run's request stream is a pure
// function of its seed.
type Event struct {
	// Seq is the event's index in schedule order.
	Seq int
	// At is the event's offset from the start of the replay.
	At time.Duration

	// Reload marks a registry reload instead of a predict request;
	// AdminHTTP selects POST /admin/reload, otherwise the reload goes
	// through Server.Reload directly — the SIGHUP handler's path.
	Reload    bool
	AdminHTTP bool

	// Model is the registry model name the request targets.
	Model string
	// RowIdxs are indices into the shared evaluation row set; len>1 uses
	// the batch "rows" form, len==1 with Single set uses "row".
	RowIdxs []int
	Single  bool
	// Hot marks a duplicate-class request: its rows are drawn only from
	// the small hot prefix of the eval set, so identical design points
	// recur constantly across concurrent requests — the traffic shape
	// that makes a prediction cache hit, and that a chaos
	// run needs to prove those hits stay bit-safe under reload races.
	Hot bool
	// Payload is the request's malformation class.
	Payload PayloadKind
	// Timeout, when nonzero, is a client-side deadline attached to the
	// request context — the request may be abandoned mid-flight, which
	// exercises cancellation while queued or being scored.
	Timeout time.Duration
}

// Schedule is a deterministic chaos request schedule.
type Schedule struct {
	Seed   int64
	Events []Event
}

// scheduleParams are the shape knobs BuildSchedule draws from.
const (
	burstSize         = 48 // simultaneous requests per burst (> queue depth, to force shedding)
	reloadSpacing     = 250 * time.Millisecond
	clientTimeoutFrac = 0.08 // fraction of OK requests carrying a client-side deadline
	hotPoolSize       = 8    // eval-row prefix the duplicate (hot) class draws from
	hotFrac           = 0.35 // fraction of OK requests pinned to the hot pool
)

// BuildSchedule derives the full request schedule from a seed: request
// offsets (a uniform trickle plus synchronized bursts sized to overflow
// the admission queue), per-request model/rows/payload choices, reload
// times (with occasional same-instant pairs, i.e. concurrent reloads),
// and client-side deadlines. Calling it twice with the same arguments
// yields identical schedules — the reproducibility contract chaos
// failures are debugged with.
func BuildSchedule(seed int64, requests int, horizon time.Duration, models []string, evalRows int) *Schedule {
	r := rand.New(rand.NewSource(seed))
	var events []Event

	// Reloads: evenly spaced with jitter; every third gets a twin at the
	// same instant so reloads race each other (and in-flight predicts).
	nReloads := int(horizon / reloadSpacing)
	if nReloads < 6 {
		nReloads = 6
	}
	for i := 0; i < nReloads; i++ {
		at := time.Duration(float64(horizon) * (float64(i) + r.Float64()) / float64(nReloads))
		ev := Event{At: at, Reload: true, AdminHTTP: i%2 == 0}
		events = append(events, ev)
		if i%3 == 2 {
			twin := ev
			twin.AdminHTTP = !ev.AdminHTTP
			events = append(events, twin)
		}
	}

	// Bursts: carve off part of the request budget into synchronized
	// clumps; the remainder trickles uniformly over the horizon.
	nBursts := requests / 150
	if nBursts < 2 {
		nBursts = 2
	}
	burstBudget := nBursts * burstSize
	if burstBudget > requests/2 {
		burstBudget = requests / 2
		nBursts = burstBudget / burstSize
	}
	burstAt := make([]time.Duration, nBursts)
	for i := range burstAt {
		burstAt[i] = time.Duration(float64(horizon) * (float64(i) + 0.5 + 0.4*r.Float64()) / float64(nBursts+1))
	}
	for i := 0; i < requests; i++ {
		var at time.Duration
		if i < burstBudget && nBursts > 0 {
			at = burstAt[i%nBursts]
		} else {
			at = time.Duration(r.Int63n(int64(horizon)))
		}
		events = append(events, buildRequest(r, at, models, evalRows))
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for i := range events {
		events[i].Seq = i
	}
	return &Schedule{Seed: seed, Events: events}
}

// buildRequest draws one predict event's model, rows, payload class and
// optional client deadline.
func buildRequest(r *rand.Rand, at time.Duration, models []string, evalRows int) Event {
	ev := Event{At: at, Model: models[r.Intn(len(models))]}
	switch p := r.Float64(); {
	case p < 0.04:
		ev.Payload = PayloadBadWidth
	case p < 0.07:
		ev.Payload = PayloadBadType
	case p < 0.09:
		ev.Payload = PayloadUnknownModel
		ev.Model = "ghost"
	case p < 0.12:
		// Unknown categories are only client errors for numeric-coded
		// encoders; one-hot models legitimately score unseen categories
		// as all-zero indicators. Pin the request to the LR model.
		ev.Payload = PayloadUnknownCategory
		ev.Model = "lre"
	}
	// Duplicate class: a share of well-formed requests draws rows only
	// from the hot prefix, so the same design points repeat across
	// concurrent requests and batch bodies.
	pool := evalRows
	if ev.Payload == PayloadOK && r.Float64() < hotFrac {
		ev.Hot = true
		if pool > hotPoolSize {
			pool = hotPoolSize
		}
	}
	if r.Float64() < 0.7 {
		ev.Single = true
		ev.RowIdxs = []int{r.Intn(pool)}
	} else {
		n := 2 + r.Intn(6)
		ev.RowIdxs = make([]int, n)
		for i := range ev.RowIdxs {
			ev.RowIdxs[i] = r.Intn(pool)
		}
	}
	if ev.Payload == PayloadOK && r.Float64() < clientTimeoutFrac {
		ev.Timeout = time.Duration(3+r.Intn(13)) * time.Millisecond
	}
	return ev
}

// Hash fingerprints the schedule's decisions. Two runs with the same
// seed and sizing produce the same hash; reports record it so "same
// seed, same schedule" is checkable from artifacts alone.
func (s *Schedule) Hash() uint64 {
	h := fnv.New64a()
	for _, ev := range s.Events {
		fmt.Fprintf(h, "%d|%d|%t|%t|%s|%v|%t|%t|%d|%d\n",
			ev.Seq, ev.At, ev.Reload, ev.AdminHTTP, ev.Model, ev.RowIdxs, ev.Single, ev.Hot, ev.Payload, ev.Timeout)
	}
	return h.Sum64()
}
