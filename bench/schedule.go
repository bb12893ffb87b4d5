package main

import (
	"math/rand"
	"sort"
	"time"
)

// traffic describes a serving workload's open-loop request stream.
type traffic struct {
	rate        float64       // predict requests per second, Poisson arrivals
	rowsPerBody int           // 1 sends single rows; more sends batch bodies scanning the space
	direct      bool          // send to replica 0 instead of through the gateway
	reloadEvery time.Duration // POST /admin/reload to replica 0 at this period; 0 never
	hotShare    float64       // share of single rows drawn from a 64-point hot set
}

// servingTraffic defines the serving workloads; BENCHMARK.json says why
// each exists.
var servingTraffic = map[string]traffic{
	"point_hot":    {rate: 2000, rowsPerBody: 1, hotShare: 0.9},
	"point_cold":   {rate: 600, rowsPerBody: 1},
	"sweep_reload": {rate: 300, rowsPerBody: 64, direct: true, reloadEvery: 2 * time.Second},
}

const hotSetSize = 64

// item is one scheduled request: a predict body or, when n is 0, a reload.
type item struct {
	due   time.Duration // offset from the start of the schedule
	body  []byte
	model int // index into fixtureModels
	row   int // first fixture row in the body
	n     int // rows in the body
}

func (it *item) reload() bool { return it.n == 0 }

// buildSchedule draws the whole request stream of one phase from seed
// before anything is timed: arrival times, the rows each request asks
// for, and a body encoded for that request alone. Bodies are never
// reused, so repeated keys come only from the traffic's own key mix.
func buildSchedule(fx *fixture, tf traffic, seed int64, horizon time.Duration) []item {
	r := rand.New(rand.NewSource(seed))
	nrows := len(fx.rows)
	hot := r.Perm(nrows)[:hotSetSize]
	perPass := nrows / tf.rowsPerBody
	scan := r.Intn(len(fixtureModels) * perPass) // where the batch scan starts
	var sched []item
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / tf.rate * float64(time.Second))
		if t >= horizon {
			break
		}
		it := item{due: t, n: tf.rowsPerBody}
		if tf.rowsPerBody == 1 {
			it.model = r.Intn(len(fixtureModels))
			if r.Float64() < tf.hotShare {
				it.row = hot[r.Intn(hotSetSize)]
			} else {
				it.row = r.Intn(nrows)
			}
		} else {
			it.model = scan / perPass % len(fixtureModels)
			it.row = scan % perPass * tf.rowsPerBody
			scan++
		}
		it.body = encodeBody(fx, &it)
		sched = append(sched, it)
	}
	if tf.reloadEvery > 0 {
		for t := tf.reloadEvery; t < horizon; t += tf.reloadEvery {
			sched = append(sched, item{due: t})
		}
		sort.SliceStable(sched, func(a, b int) bool { return sched[a].due < sched[b].due })
	}
	return sched
}

// encodeBody builds the predict body json.Marshal(serve.PredictRequest)
// would produce, from the fixture's pre-encoded rows.
func encodeBody(fx *fixture, it *item) []byte {
	name := fixtureModels[it.model].name
	size := len(name) + 32
	for i := 0; i < it.n; i++ {
		size += len(fx.rowJSON[it.row+i]) + 1
	}
	b := make([]byte, 0, size)
	b = append(b, `{"model":"`...)
	b = append(b, name...)
	if it.n == 1 {
		b = append(b, `","row":`...)
		b = append(b, fx.rowJSON[it.row]...)
		return append(b, '}')
	}
	b = append(b, `","rows":[`...)
	for i := 0; i < it.n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, fx.rowJSON[it.row+i]...)
	}
	return append(b, "]}"...)
}

// firstMeasured returns the index of the first item due at or after the
// warm-up.
func firstMeasured(sched []item, warm time.Duration) int {
	return sort.Search(len(sched), func(i int) bool { return sched[i].due >= warm })
}
