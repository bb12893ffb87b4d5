package cpu

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"perfpred/internal/bpred"
	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// Result reports one simulated configuration.
type Result struct {
	// Instructions is the dynamic instruction count simulated.
	Instructions int
	// Cycles is the modeled execution time.
	Cycles float64
	// IPC is Instructions/Cycles.
	IPC float64

	// Component breakdown (cycles).
	BaseCycles   float64 // dispatch/issue-limited work
	BranchCycles float64 // misprediction recovery
	FetchCycles  float64 // instruction-cache misses
	MemCycles    float64 // data-cache misses (MLP-adjusted)
	TLBCycles    float64 // page walks

	// Event counts.
	BranchMisses uint64
	Branches     uint64
	MemStats     mem.AccessStats
}

// traceMetrics caches configuration-independent trace statistics.
type traceMetrics struct {
	n        int
	mix      map[trace.Class]float64
	depMean  float64
	branches uint64
}

// memMetrics caches the outcome of running the trace through one memory
// hierarchy configuration.
type memMetrics struct {
	stats mem.AccessStats
	// Beyond-hit latency sums (cycles). On-chip (L2/L3-served) latency and
	// memory-trip latency are separated because the pipeline hides them
	// differently, and TLB walks are split out because they serialize.
	instCacheExtra float64 // I-side latency beyond the L1I hit time
	loadChipExtra  float64 // load latency served on-chip beyond the L1D hit
	loadMemExtra   float64 // load latency of accesses that reached memory
	storeChipExtra float64 // store latency served on-chip beyond the L1D hit
	storeMemExtra  float64 // store latency of accesses that reached memory
	tlbCycles      float64 // all page-walk cycles
}

// branchMetrics caches one predictor's behaviour on the trace.
type branchMetrics struct {
	mispredicts uint64
	branches    uint64
}

// missKind says what an L1 pass hands to the levels behind the L1s.
type missKind uint8

const (
	fetchMiss missKind = iota
	loadMiss
	storeMiss
	// prefetchFill is a next-line prefetch whose line the L1D did not
	// already hold: it installs into the L2 without counting an access.
	prefetchFill
)

// l1Event is one access an L1 pass sends on to the L2.
type l1Event struct {
	addr uint64
	idx  uint32 // instruction index in the trace
	kind missKind
}

// l1Pass is one L1 cache's behaviour on the trace: its demand counters
// and, in program order, every event it sends on to the L2.
type l1Pass struct {
	accesses, misses, prefetches uint64
	events                       []l1Event
}

// tlbPass is one TLB's page-walk cost over its address stream.
type tlbPass struct {
	cycles float64
	misses uint64
}

// l1dKey identifies an L1D pass: the cache geometry and the prefetcher.
type l1dKey struct {
	geom     mem.CacheConfig
	prefetch bool
}

// predictorKey identifies a branch-predictor pass.
type predictorKey struct {
	kind    bpred.Kind
	entries int
}

// memo computes each key's value exactly once, even when several
// goroutines ask for the same key at the same time: the later callers
// wait on the entry's sync.Once instead of simulating it again.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	runs    atomic.Int64 // computations started, for tests to check against len(entries)
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (m *memo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	ent, ok := m.entries[key]
	if !ok {
		if m.entries == nil {
			m.entries = map[K]*memoEntry[V]{}
		}
		ent = &memoEntry[V]{}
		m.entries[key] = ent
	}
	m.mu.Unlock()
	ent.once.Do(func() {
		m.runs.Add(1)
		ent.val, ent.err = compute()
	})
	return ent.val, ent.err
}

// Evaluator simulates many configurations against one trace. It
// simulates each substrate fact once and shares it between the
// configurations that need it: one pass per L1I geometry, per L1D
// geometry and prefetcher, per ITLB and per DTLB over the full trace;
// one pass per cache stack (the hierarchy without its TLBs) over the
// merged, much shorter L1-miss stream; and one pass per branch predictor.
// Every memory metric is a sum of small integers, exact in float64, so
// the staged sums equal a direct walk of the whole hierarchy bit for bit.
// It is safe for concurrent use.
type Evaluator struct {
	tr *trace.Trace
	tm traceMetrics

	l1i    memo[mem.CacheConfig, *l1Pass] // keyed by geometry: the hit latency cancels
	l1d    memo[l1dKey, *l1Pass]
	itlb   memo[mem.TLBConfig, *tlbPass]
	dtlb   memo[mem.TLBConfig, *tlbPass]
	stacks memo[mem.HierarchyConfig, *memMetrics] // keyed by StackKey
	preds  memo[predictorKey, *branchMetrics]
}

// NewEvaluator prepares an evaluator for the trace.
func NewEvaluator(tr *trace.Trace) (*Evaluator, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("cpu: empty trace")
	}
	if int64(tr.Len()) > math.MaxUint32 {
		return nil, fmt.Errorf("cpu: trace of %d instructions is too long", tr.Len())
	}
	e := &Evaluator{tr: tr}
	e.tm = traceMetrics{
		n:       tr.Len(),
		mix:     tr.Mix(),
		depMean: tr.MeanDepDistance(),
	}
	for i := range tr.Instrs {
		if tr.Instrs[i].Class == trace.Branch {
			e.tm.branches++
		}
	}
	return e, nil
}

// StackKey is the cache stack a hierarchy runs on: the hierarchy with
// its TLBs zeroed. Configurations whose hierarchies share a key share one
// Evaluator stack pass, the costliest stage of a simulation.
func StackKey(cfg mem.HierarchyConfig) mem.HierarchyConfig {
	cfg.ITLB, cfg.DTLB = mem.TLBConfig{}, mem.TLBConfig{}
	return cfg
}

// memPass assembles the memory metrics of a hierarchy from its cache
// stack and its two TLBs.
func (e *Evaluator) memPass(cfg mem.HierarchyConfig) (memMetrics, error) {
	sm, err := e.stacks.get(StackKey(cfg), func() (*memMetrics, error) { return e.stackPass(cfg) })
	if err != nil {
		return memMetrics{}, err
	}
	it, err := e.tlbPass(&e.itlb, cfg.ITLB, false)
	if err != nil {
		return memMetrics{}, err
	}
	dt, err := e.tlbPass(&e.dtlb, cfg.DTLB, true)
	if err != nil {
		return memMetrics{}, err
	}
	m := *sm
	m.tlbCycles = it.cycles + dt.cycles
	m.stats.ITLBMisses, m.stats.DTLBMisses = it.misses, dt.misses
	return m, nil
}

// stackPass merges the L1I and L1D event streams in program order and
// runs the L2, L3 and memory over the merged stream. The TLBs never touch
// the caches, so every TLB variant of a cache stack shares this pass.
func (e *Evaluator) stackPass(cfg mem.HierarchyConfig) (*memMetrics, error) {
	ip, err := e.l1iPass(cfg.L1I)
	if err != nil {
		return nil, err
	}
	dp, err := e.l1dPass(cfg.L1D, cfg.NextLinePrefetch)
	if err != nil {
		return nil, err
	}
	b, err := mem.NewBacking(cfg)
	if err != nil {
		return nil, err
	}
	m := &memMetrics{}
	iev, dev := ip.events, dp.events
	for len(iev) > 0 || len(dev) > 0 {
		var ev l1Event
		// Within one instruction the fetch precedes the data access.
		if len(dev) == 0 || len(iev) > 0 && iev[0].idx <= dev[0].idx {
			ev, iev = iev[0], iev[1:]
		} else {
			ev, dev = dev[0], dev[1:]
		}
		if ev.kind == prefetchFill {
			b.Prefetch(ev.addr)
			continue
		}
		lat, toMem := b.Access(ev.addr)
		switch {
		case ev.kind == fetchMiss:
			m.instCacheExtra += float64(lat)
		case ev.kind == loadMiss && toMem:
			m.loadMemExtra += float64(lat)
		case ev.kind == loadMiss:
			m.loadChipExtra += float64(lat)
		case toMem:
			m.storeMemExtra += float64(lat)
		default:
			m.storeChipExtra += float64(lat)
		}
	}
	m.stats = b.Stats()
	m.stats.L1IAccesses, m.stats.L1IMisses = ip.accesses, ip.misses
	m.stats.L1DAccesses, m.stats.L1DMisses = dp.accesses, dp.misses
	m.stats.Prefetches = dp.prefetches
	return m, nil
}

// l1iPass runs (or reuses) the L1I over every fetch, recording its misses.
func (e *Evaluator) l1iPass(c mem.CacheConfig) (*l1Pass, error) {
	geom := c
	geom.LatencyCycles = 0
	return e.l1i.get(geom, func() (*l1Pass, error) {
		cache, err := mem.NewCache(c)
		if err != nil {
			return nil, err
		}
		p := &l1Pass{}
		for i := range e.tr.Instrs {
			if pc := e.tr.Instrs[i].PC; !cache.Access(pc) {
				p.events = append(p.events, l1Event{addr: pc, idx: uint32(i), kind: fetchMiss})
			}
		}
		p.accesses, p.misses = cache.Accesses(), cache.Misses()
		return p, nil
	})
}

// l1dPass runs (or reuses) the L1D over every load and store, recording
// its misses and, with the next-line prefetcher on, each prefetch fill
// right after the demand miss that issued it.
func (e *Evaluator) l1dPass(c mem.CacheConfig, prefetch bool) (*l1Pass, error) {
	geom := c
	geom.LatencyCycles = 0
	return e.l1d.get(l1dKey{geom, prefetch}, func() (*l1Pass, error) {
		cache, err := mem.NewCache(c)
		if err != nil {
			return nil, err
		}
		p := &l1Pass{}
		for i := range e.tr.Instrs {
			ins := &e.tr.Instrs[i]
			kind := loadMiss
			switch ins.Class {
			case trace.Load:
			case trace.Store:
				kind = storeMiss
			default:
				continue
			}
			if cache.Access(ins.Addr) {
				continue
			}
			p.events = append(p.events, l1Event{addr: ins.Addr, idx: uint32(i), kind: kind})
			if next := ins.Addr + uint64(c.LineBytes); prefetch && !cache.Install(next) {
				p.events = append(p.events, l1Event{addr: next, idx: uint32(i), kind: prefetchFill})
				p.prefetches++
			}
		}
		p.accesses, p.misses = cache.Accesses(), cache.Misses()
		return p, nil
	})
}

// tlbPass runs (or reuses) one TLB over the fetch stream, or over the
// load and store stream when data is set.
func (e *Evaluator) tlbPass(m *memo[mem.TLBConfig, *tlbPass], c mem.TLBConfig, data bool) (*tlbPass, error) {
	return m.get(c, func() (*tlbPass, error) {
		t, err := mem.NewTLB(c)
		if err != nil {
			return nil, err
		}
		p := &tlbPass{}
		for i := range e.tr.Instrs {
			ins := &e.tr.Instrs[i]
			addr := ins.PC
			if data {
				if ins.Class != trace.Load && ins.Class != trace.Store {
					continue
				}
				addr = ins.Addr
			}
			p.cycles += float64(t.Access(addr))
		}
		p.misses = t.Misses()
		return p, nil
	})
}

// predPass runs (or reuses) one predictor over the trace's branch stream.
func (e *Evaluator) predPass(kind bpred.Kind, entries int) (*branchMetrics, error) {
	return e.preds.get(predictorKey{kind, entries}, func() (*branchMetrics, error) {
		p, err := bpred.New(kind, entries)
		if err != nil {
			return nil, err
		}
		b := &branchMetrics{}
		for i := range e.tr.Instrs {
			ins := &e.tr.Instrs[i]
			if ins.Class != trace.Branch {
				continue
			}
			b.branches++
			if p.Observe(ins.PC, ins.Taken) {
				b.mispredicts++
			}
		}
		return b, nil
	})
}

// Simulate evaluates one configuration.
func (e *Evaluator) Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mm, err := e.memPass(cfg.Mem)
	if err != nil {
		return nil, err
	}
	bm, err := e.predPass(cfg.BPred, cfg.BPredEntries)
	if err != nil {
		return nil, err
	}
	res := combine(cfg, &e.tm, e.tr.Profile(), &mm, bm)
	return res, nil
}

// Simulate runs one configuration against one trace without caching.
func Simulate(cfg Config, tr *trace.Trace) (*Result, error) {
	e, err := NewEvaluator(tr)
	if err != nil {
		return nil, err
	}
	return e.Simulate(cfg)
}

// combine merges substrate metrics with the core configuration through an
// interval-style pipeline model.
func combine(cfg Config, tm *traceMetrics, prof *trace.Profile, mm *memMetrics, bm *branchMetrics) *Result {
	n := float64(tm.n)

	// --- Dispatch-limited base time -----------------------------------
	// Window-limited ILP: the trace's mean dependence distance bounds the
	// parallelism; the RUU size determines how much of it is exposed.
	ilpInf := tm.depMean
	if math.IsInf(ilpInf, 1) {
		ilpInf = float64(cfg.Width)
	}
	windowILP := ilpInf * (1 - math.Exp(-float64(cfg.RUU)/64))
	// Functional-unit throughput limit per class.
	fuLimit := math.Inf(1)
	limit := func(units int, frac float64) {
		if frac > 0 {
			l := float64(units) / frac
			if l < fuLimit {
				fuLimit = l
			}
		}
	}
	limit(cfg.FU.IntALU, tm.mix[trace.IntALU])
	limit(cfg.FU.IntMult, tm.mix[trace.IntMult])
	limit(cfg.FU.FPALU, tm.mix[trace.FPALU])
	limit(cfg.FU.FPMult, tm.mix[trace.FPMult])
	limit(cfg.FU.MemPort, tm.mix[trace.Load]+tm.mix[trace.Store])
	// The LSQ also throttles the sustainable memory-operation rate.
	memFrac := tm.mix[trace.Load] + tm.mix[trace.Store]
	if memFrac > 0 {
		lsqLimit := (float64(cfg.LSQ) / 16) / memFrac
		if lsqLimit < fuLimit {
			fuLimit = lsqLimit
		}
	}
	effIPC := math.Min(float64(cfg.Width), math.Min(windowILP, fuLimit))
	if effIPC < 0.1 {
		effIPC = 0.1
	}
	base := n / effIPC

	// --- Branch misprediction recovery --------------------------------
	penalty := float64(cfg.FrontendDepth) + float64(cfg.Width)/2
	if cfg.IssueWrong {
		// Wrong-path issue consumes fetch and execution bandwidth while
		// the misprediction resolves.
		penalty *= 1.08
	}
	branch := float64(bm.mispredicts) * penalty

	// --- Front-end stalls on instruction misses -----------------------
	// I-side misses stall fetch with little overlap.
	fetch := mm.instCacheExtra * 0.8

	// --- Data-side stalls ----------------------------------------------
	// On-chip (L2/L3-served) latencies are short enough for the
	// out-of-order window to overlap substantially; the overlap grows
	// with the window size.
	winOverlap := 2 + float64(cfg.RUU)/128
	// Memory trips are too long to hide; they overlap only with each
	// other, limited by the hardware MLP resources (window and LSQ) and
	// the workload's inherent memory-level parallelism (pointer chasing
	// caps it near 1).
	mlpHW := 1 + math.Min(float64(cfg.RUU)/2, float64(cfg.LSQ))/128
	mlp := math.Min(mlpHW, prof.MLPCap)
	memStall := mm.loadChipExtra/winOverlap + mm.loadMemExtra/mlp
	// Stores retire through the store buffer; only a fraction stalls.
	memStall += 0.3 * (mm.storeChipExtra/winOverlap + mm.storeMemExtra/mlp)

	// --- TLB walks ------------------------------------------------------
	tlb := mm.tlbCycles * 0.9

	cycles := base + branch + fetch + memStall + tlb
	return &Result{
		Instructions: tm.n,
		Cycles:       cycles,
		IPC:          n / cycles,
		BaseCycles:   base,
		BranchCycles: branch,
		FetchCycles:  fetch,
		MemCycles:    memStall,
		TLBCycles:    tlb,
		BranchMisses: bm.mispredicts,
		Branches:     bm.branches,
		MemStats:     mm.stats,
	}
}
