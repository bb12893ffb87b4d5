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
	numMissKinds
)

// l1Event is one access an L1 pass sends on to the L2.
type l1Event struct {
	addr uint64
	idx  uint32 // instruction index in the trace
	kind missKind
}

// l1Pass is one L1 cache's behaviour on the trace: its counters and, in
// program order, every miss it sends on to the L2.
type l1Pass struct {
	accesses, misses uint64
	events           []l1Event
}

// l2Miss is one access the L2 missed, in program order: what the L3
// step replays.
type l2Miss struct {
	addr uint64
	kind missKind
}

// l2Pass is one L2's behaviour on the merged L1 event stream: per miss
// kind, how many events reached it and how many of those missed. The L2
// is non-inclusive, so its hits and misses do not depend on the L3 behind
// it, and every L3 option of an L2 key shares this pass.
type l2Pass struct {
	reached, missed [numMissKinds]uint64 // indexed by fetchMiss, loadMiss, storeMiss
	// misses is the miss stream, kept only by a pass computed without a
	// Scratch; a Scratch pass leaves it in the Scratch.
	misses []l2Miss
	kept   bool
}

// tlbPass is one TLB's page-walk cost over its address stream.
type tlbPass struct {
	cycles float64
	misses uint64
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
// geometry, per ITLB, per DTLB and per branch predictor over the full
// trace; one L2 pass per L2Key over the merged, much shorter L1-miss
// stream; and one L3 step per cache stack (stackKey) over
// the still shorter L2-miss stream, when the stack has an L3. Every
// beyond-hit latency is a constant per level, so each memory metric is a
// count times a latency, an integer exact in float64, and the staged sums
// equal a direct walk of the whole hierarchy bit for bit. It is safe for
// concurrent use.
type Evaluator struct {
	tr *trace.Trace
	tm traceMetrics

	l1i    memo[mem.CacheConfig, *l1Pass] // keyed by geometry: the hit latency cancels
	l1d    memo[mem.CacheConfig, *l1Pass] // keyed by geometry, as l1i
	itlb   memo[mem.TLBConfig, *tlbPass]
	dtlb   memo[mem.TLBConfig, *tlbPass]
	l2     memo[mem.HierarchyConfig, *l2Pass]     // keyed by L2Key
	stacks memo[mem.HierarchyConfig, *memMetrics] // keyed by stackKey
	preds  memo[predictorKey, *branchMetrics]
}

// Scratch is one goroutine's reusable state for the levels behind the
// L1s: a cache array per geometry, reset for each pass it serves, and the
// miss stream of the last L2 pass it ran. A Scratch must not be used by
// two goroutines at once; the zero value is ready to use.
type Scratch struct {
	caches []*mem.Cache
	key    mem.HierarchyConfig // L2Key of the pass whose stream misses holds
	pass   *l2Pass             // nil until an L2 pass has run on the Scratch
	misses []l2Miss
}

// cache returns a cleared cache of c's geometry, reusing one of the
// Scratch's arrays when it has one. A nil Scratch allocates a new cache.
// The cache stays valid until the next call.
func (s *Scratch) cache(c mem.CacheConfig) (*mem.Cache, error) {
	if s == nil {
		return mem.NewCache(c)
	}
	for _, k := range s.caches {
		if geometry(k.Config()) == geometry(c) {
			k.Reset()
			return k, nil
		}
	}
	k, err := mem.NewCache(c)
	if err != nil {
		return nil, err
	}
	s.caches = append(s.caches, k)
	return k, nil
}

// geometry is c without its hit latency, which no pass's hits and misses
// depend on.
func geometry(c mem.CacheConfig) mem.CacheConfig {
	c.LatencyCycles = 0
	return c
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

// stackKey is the cache stack a hierarchy runs on: the hierarchy with
// its TLBs zeroed. Configurations whose hierarchies share a key share one
// L3 step and its memory metrics.
func stackKey(cfg mem.HierarchyConfig) mem.HierarchyConfig {
	cfg.ITLB, cfg.DTLB = mem.TLBConfig{}, mem.TLBConfig{}
	return cfg
}

// L2Key is the L2 pass a hierarchy runs on: the geometry of its L1I, L1D
// and L2. Configurations whose hierarchies share a key share one
// Evaluator L2 pass, whatever their L3, TLBs and latencies.
func L2Key(cfg mem.HierarchyConfig) mem.HierarchyConfig {
	return mem.HierarchyConfig{L1I: geometry(cfg.L1I), L1D: geometry(cfg.L1D), L2: geometry(cfg.L2)}
}

// TracePasses returns one function per distinct full-trace pass the valid
// configurations among cfgs need (L1I, L1D, ITLB, DTLB and branch
// predictor), in order of first appearance. Each runs its pass through
// the evaluator's memo, so once they have all run, simulating cfgs
// computes only the L2 passes and L3 steps.
func (e *Evaluator) TracePasses(cfgs []Config) []func() error {
	type passKey struct {
		stage string
		cache mem.CacheConfig
		tlb   mem.TLBConfig
		pred  predictorKey
	}
	seen := map[passKey]bool{}
	fresh := func(k passKey) bool {
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	var passes []func() error
	for i := range cfgs {
		cfg := &cfgs[i]
		if cfg.Validate() != nil {
			continue // Simulate reports the error
		}
		// Each closure captures small copies of its key alone.
		l1i, l1d := cfg.Mem.L1I, cfg.Mem.L1D
		itlb, dtlb, pred := cfg.Mem.ITLB, cfg.Mem.DTLB, predictorKey{cfg.BPred, cfg.BPredEntries}
		if fresh(passKey{stage: "l1i", cache: geometry(l1i)}) {
			passes = append(passes, func() error { _, err := e.l1iPass(l1i); return err })
		}
		if fresh(passKey{stage: "l1d", cache: geometry(l1d)}) {
			passes = append(passes, func() error { _, err := e.l1dPass(l1d); return err })
		}
		if fresh(passKey{stage: "itlb", tlb: itlb}) {
			passes = append(passes, func() error { _, err := e.tlbPass(&e.itlb, itlb, false); return err })
		}
		if fresh(passKey{stage: "dtlb", tlb: dtlb}) {
			passes = append(passes, func() error { _, err := e.tlbPass(&e.dtlb, dtlb, true); return err })
		}
		if fresh(passKey{stage: "pred", pred: pred}) {
			passes = append(passes, func() error { _, err := e.predPass(pred.kind, pred.entries); return err })
		}
	}
	return passes
}

// memPass assembles the memory metrics of a hierarchy from its cache
// stack and its two TLBs, computing a missing stack on s.
func (e *Evaluator) memPass(cfg mem.HierarchyConfig, s *Scratch) (memMetrics, error) {
	sm, err := e.stacks.get(stackKey(cfg), func() (*memMetrics, error) { return e.stackPass(cfg, s) })
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

// stackPass computes a cache stack's metrics from its L2 pass and, when
// the stack has an L3, an L3 step that replays the L2's misses through
// it. The TLBs never touch the caches, so every TLB variant of a cache
// stack shares this pass.
func (e *Evaluator) stackPass(cfg mem.HierarchyConfig, s *Scratch) (*memMetrics, error) {
	p, misses, err := e.l2Pass(cfg, s)
	if err != nil {
		return nil, err
	}
	ip, err := e.l1iPass(cfg.L1I)
	if err != nil {
		return nil, err
	}
	dp, err := e.l1dPass(cfg.L1D)
	if err != nil {
		return nil, err
	}
	m := &memMetrics{}
	m.stats.L1IAccesses, m.stats.L1IMisses = ip.accesses, ip.misses
	m.stats.L1DAccesses, m.stats.L1DMisses = dp.accesses, dp.misses
	for k := range p.reached {
		m.stats.L2Accesses += p.reached[k]
		m.stats.L2Misses += p.missed[k]
	}
	// toMem counts, per miss kind, the accesses that went to memory.
	toMem := p.missed
	var l3Lat int64
	if cfg.L3.Enabled() {
		l3, err := s.cache(cfg.L3)
		if err != nil {
			return nil, err
		}
		toMem = [numMissKinds]uint64{}
		for _, ms := range misses {
			if !l3.Access(ms.addr) {
				toMem[ms.kind]++
			}
		}
		m.stats.L3Accesses, m.stats.L3Misses = l3.Accesses(), l3.Misses()
		m.stats.MemAccesses = m.stats.L3Misses
		l3Lat = int64(cfg.L3.LatencyCycles)
	} else {
		m.stats.MemAccesses = m.stats.L2Misses
	}
	// An access that reached the L2 costs the L2 latency, one that missed
	// it also the L3's, and one that went to memory also the memory trip.
	l2Lat, memLat := int64(cfg.L2.LatencyCycles), int64(cfg.MemLatencyCyc+cfg.MemLatencyBusy)
	var chip, toMemLat [numMissKinds]float64
	for k := range toMem {
		reached, missed, went := int64(p.reached[k]), int64(p.missed[k]), int64(toMem[k])
		chip[k] = float64((reached-went)*l2Lat + (missed-went)*l3Lat)
		toMemLat[k] = float64(went * (l2Lat + l3Lat + memLat))
	}
	m.instCacheExtra = chip[fetchMiss] + toMemLat[fetchMiss]
	m.loadChipExtra, m.loadMemExtra = chip[loadMiss], toMemLat[loadMiss]
	m.storeChipExtra, m.storeMemExtra = chip[storeMiss], toMemLat[storeMiss]
	return m, nil
}

// l2Pass returns cfg's L2 pass and, when cfg has an L3, the pass's miss
// stream. It takes the stream from s when s ran the pass last, and
// otherwise runs the pass through the memo: on s, which then holds the
// stream, or with s nil on fresh arrays, keeping the stream in the memo.
// A pass another goroutine ran on its own Scratch left no stream behind,
// so a stack that needs one walks the L2 again, outside the memo.
func (e *Evaluator) l2Pass(cfg mem.HierarchyConfig, s *Scratch) (*l2Pass, []l2Miss, error) {
	key := L2Key(cfg)
	if s != nil && s.pass != nil && s.key == key {
		return s.pass, s.misses, nil
	}
	p, err := e.l2.get(key, func() (*l2Pass, error) {
		if s != nil {
			return e.walkL2(cfg, s)
		}
		var own Scratch
		p, err := e.walkL2(cfg, &own)
		if err == nil {
			p.misses, p.kept = own.misses, true
		}
		return p, err
	})
	switch {
	case err != nil:
		return nil, nil, err
	case p.kept:
		return p, p.misses, nil
	case !cfg.L3.Enabled():
		return p, nil, nil
	case s != nil && s.pass == p:
		return p, s.misses, nil
	}
	if s == nil {
		s = new(Scratch)
	}
	if _, err := e.walkL2(cfg, s); err != nil {
		return nil, nil, err
	}
	return p, s.misses, nil
}

// walkL2 merges the L1I and L1D event streams in program order, runs the
// L2 over the merged stream on s's arrays and leaves its misses in s,
// replacing the stream s held.
func (e *Evaluator) walkL2(cfg mem.HierarchyConfig, s *Scratch) (*l2Pass, error) {
	ip, err := e.l1iPass(cfg.L1I)
	if err != nil {
		return nil, err
	}
	dp, err := e.l1dPass(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := s.cache(cfg.L2)
	if err != nil {
		return nil, err
	}
	s.pass, s.misses = nil, s.misses[:0]
	p := &l2Pass{}
	iev, dev := ip.events, dp.events
	for len(iev) > 0 || len(dev) > 0 {
		var ev l1Event
		// Within one instruction the fetch precedes the data access.
		if len(dev) == 0 || len(iev) > 0 && iev[0].idx <= dev[0].idx {
			ev, iev = iev[0], iev[1:]
		} else {
			ev, dev = dev[0], dev[1:]
		}
		p.reached[ev.kind]++
		if !l2.Access(ev.addr) {
			p.missed[ev.kind]++
			s.misses = append(s.misses, l2Miss{addr: ev.addr, kind: ev.kind})
		}
	}
	s.key, s.pass = L2Key(cfg), p
	return p, nil
}

// l1iPass runs (or reuses) the L1I over every fetch, recording its misses.
func (e *Evaluator) l1iPass(c mem.CacheConfig) (*l1Pass, error) {
	return e.l1i.get(geometry(c), func() (*l1Pass, error) {
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
// its misses.
func (e *Evaluator) l1dPass(c mem.CacheConfig) (*l1Pass, error) {
	return e.l1d.get(geometry(c), func() (*l1Pass, error) {
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
			if !cache.Access(ins.Addr) {
				p.events = append(p.events, l1Event{addr: ins.Addr, idx: uint32(i), kind: kind})
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
func (e *Evaluator) Simulate(cfg Config) (Result, error) {
	return e.SimulateOn(cfg, nil)
}

// SimulateOn evaluates one configuration like Simulate, running a missing
// L2 pass or L3 step on s's reusable arrays. Simulating the configurations
// of one L2Key back to back on one Scratch walks their L2 once.
func (e *Evaluator) SimulateOn(cfg Config, s *Scratch) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	mm, err := e.memPass(cfg.Mem, s)
	if err != nil {
		return Result{}, err
	}
	bm, err := e.predPass(cfg.BPred, cfg.BPredEntries)
	if err != nil {
		return Result{}, err
	}
	return combine(cfg, &e.tm, e.tr.Profile(), &mm, bm), nil
}

// Simulate runs one configuration against one trace without caching.
func Simulate(cfg Config, tr *trace.Trace) (*Result, error) {
	e, err := NewEvaluator(tr)
	if err != nil {
		return nil, err
	}
	res, err := e.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// combine merges substrate metrics with the core configuration through an
// interval-style pipeline model.
func combine(cfg Config, tm *traceMetrics, prof *trace.Profile, mm *memMetrics, bm *branchMetrics) Result {
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
	return Result{
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
