package specdata

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"perfpred/internal/dataset"
	"perfpred/internal/stat"
)

// Record is one synthesized SPEC announcement.
type Record struct {
	// Family is the family name the record belongs to.
	Family string
	// Year the result was announced.
	Year int
	// Row holds the 32 system parameters, matching Schema().
	Row []dataset.Value
	// Rate is the SPECint_rate-style rating (the prediction target).
	Rate float64
	// AppTimes are the per-application runtimes (seconds) whose normalized
	// geometric mean reproduces Rate for single-copy runs.
	AppTimes map[string]float64
}

// Generate synthesizes every announcement of the family across all its
// years, deterministically for a given seed.
func Generate(f *Family, seed int64) ([]Record, error) {
	if f == nil {
		return nil, errors.New("specdata: nil family")
	}
	if len(f.years) == 0 {
		return nil, fmt.Errorf("specdata: family %s has no years", f.Name)
	}
	var out []Record
	for yi, menu := range f.years {
		r := stat.NewSubRand(seed, yi*101+hashName(f.Name))
		for i := 0; i < menu.count; i++ {
			rec, err := synthOne(f, &menu, r)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// hashName derives a stable small integer from a family name so different
// families use different random streams under the same seed.
func hashName(s string) int {
	h := 0
	for _, c := range s {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % 10007
}

func pick(r *rand.Rand, opts []float64) float64 {
	return opts[r.Intn(len(opts))]
}

func pickStr(r *rand.Rand, opts []string) string {
	return opts[r.Intn(len(opts))]
}

func synthOne(f *Family, menu *yearMenu, r *rand.Rand) (Record, error) {
	speed := pick(r, menu.speedsMHz)
	bus := pick(r, menu.busMHz)
	l2 := pick(r, menu.l2KB)
	l3 := 0.0
	if len(menu.l3KB) > 0 {
		l3 = pick(r, menu.l3KB)
	}
	memMHz := pick(r, menu.memMHz)
	memGB := pick(r, menu.memGB)

	smt := f.SMT && r.Intn(2) == 0
	l2OnChip := true
	if !f.L2OnChipAlways {
		l2OnChip = r.Intn(4) != 0 // most, but not all, configurations
	}
	l2Shared := f.CoresPerChip > 1 && r.Intn(2) == 0
	totalCores := f.Chips * f.CoresPerChip

	// Latent performance model (see Family docs).
	// Every secondary term is linear in its parameter so that a linear
	// model which saw the parameter vary in the training year extrapolates
	// correctly into the next year's envelope — matching how well LR did
	// in the paper's chronological study.
	perf := f.base * math.Pow(speed/1000, f.speedExp)
	perf *= 1 + f.l2Coef*(l2-f.l2RefKB)/f.l2RefKB
	if l3 > 0 {
		perf *= 1 + f.l3Coef*(l3-2048)/2048
	}
	perf *= 1 + f.memFreqCoef*(memMHz/f.memFreqRef-1)
	perf *= 1 + f.memSizeCoef*(memGB-4)/4
	perf *= 1 + f.busCoef*(bus/f.busRef-1)
	if smt {
		perf *= 1.04
	}
	if !l2OnChip {
		perf /= 1 + f.l2OnChipCoef
	}
	scale := math.Pow(float64(totalCores), f.scaleExp)
	if f.scaleSpread > 0 {
		scale *= math.Exp(r.NormFloat64() * f.scaleSpread)
	}
	perf *= scale
	// Unmodeled year-over-year drift (toolchain maturity): the part no
	// model trained on earlier years can know.
	perf *= math.Pow(f.drift, float64(menu.year-2005))
	// Announcement noise.
	perf *= math.Exp(r.NormFloat64() * f.noiseSigma)

	// Per-application runtimes consistent with the rating: the normalized
	// ratios' geometric mean equals the rating.
	apps := IntApps()
	refs := RefTimes()
	delta := make([]float64, len(apps))
	sum := 0.0
	for i := range apps {
		delta[i] = r.NormFloat64() * 0.05
		sum += delta[i]
	}
	times := make(map[string]float64, len(apps))
	for i, app := range apps {
		d := delta[i] - sum/float64(len(apps)) // center so geomean holds
		times[app] = refs[app] / (perf * math.Exp(d))
	}

	hddType := pickStr(r, []string{"SATA", "SCSI", "SAS"})
	extra := pickStr(r, []string{"none", "none", "raid", "remote-mgmt"})

	row := []dataset.Value{
		dataset.Cat(pickStr(r, f.companies)),
		dataset.Cat(pickStr(r, f.sysNames)),
		dataset.Cat(pickStr(r, f.procModels)),
		dataset.Num(bus),
		dataset.Num(speed),
		dataset.FlagVal(true),
		dataset.Num(float64(totalCores)),
		dataset.Num(float64(f.Chips)),
		dataset.Num(float64(f.CoresPerChip)),
		dataset.FlagVal(smt),
		dataset.FlagVal(totalCores > 1),
		dataset.Num(f.L1IKB),
		dataset.Num(f.L1DKB),
		dataset.FlagVal(true),
		dataset.Num(l2),
		dataset.FlagVal(l2OnChip),
		dataset.FlagVal(l2Shared),
		dataset.FlagVal(true),
		dataset.Num(l3),
		dataset.FlagVal(l3 > 0 && r.Intn(2) == 0),
		dataset.FlagVal(false),
		dataset.FlagVal(l3 > 0),
		dataset.FlagVal(l3 > 0),
		dataset.Num(0), // l4_kb: none of these systems shipped an L4
		dataset.Num(0),
		dataset.FlagVal(false),
		dataset.Num(memGB),
		dataset.Num(memMHz),
		dataset.Num(pick(r, []float64{36, 73, 146, 300})),
		dataset.Num(pick(r, []float64{7200, 10000, 15000})),
		dataset.Cat(hddType),
		dataset.Cat(extra),
	}
	return Record{
		Family:   f.Name,
		Year:     menu.year,
		Row:      row,
		Rate:     perf,
		AppTimes: times,
	}, nil
}

// BuildDataset assembles the records announced in the given years into a
// dataset over Schema(), with the SPEC rate as the target. Records are
// ordered deterministically.
func BuildDataset(records []Record, years ...int) (*dataset.Dataset, error) {
	if len(records) == 0 {
		return nil, errors.New("specdata: no records")
	}
	wanted := map[int]bool{}
	for _, y := range years {
		wanted[y] = true
	}
	d := dataset.New(Schema())
	for _, rec := range records {
		if len(years) > 0 && !wanted[rec.Year] {
			continue
		}
		if err := d.Append(rec.Row, rec.Rate); err != nil {
			return nil, err
		}
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("specdata: no records in years %v", years)
	}
	return d, nil
}

// BuildAppDataset assembles records into a dataset whose target is one
// application's execution time in seconds (optionally filtered by year).
// The paper notes individual applications "can also be accurately
// estimated" but omits the results for space; this is the raw material for
// that experiment.
func BuildAppDataset(records []Record, app string, years ...int) (*dataset.Dataset, error) {
	if len(records) == 0 {
		return nil, errors.New("specdata: no records")
	}
	wanted := map[int]bool{}
	for _, y := range years {
		wanted[y] = true
	}
	schema := Schema()
	appSchema, err := dataset.NewSchema(app+"_seconds", schema.Fields...)
	if err != nil {
		return nil, err
	}
	d := dataset.New(appSchema)
	for _, rec := range records {
		if len(years) > 0 && !wanted[rec.Year] {
			continue
		}
		tm, ok := rec.AppTimes[app]
		if !ok {
			return nil, fmt.Errorf("specdata: record has no time for application %q", app)
		}
		if err := d.Append(rec.Row, tm); err != nil {
			return nil, err
		}
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("specdata: no records in years %v", years)
	}
	return d, nil
}

// FamilyStatistics summarizes generated records the way the paper's §4.1
// does: count, range (best/worst rate) and mean-normalized variance.
func FamilyStatistics(records []Record) (count int, rng, variance float64, err error) {
	if len(records) == 0 {
		return 0, 0, 0, errors.New("specdata: no records")
	}
	rates := make([]float64, len(records))
	for i, r := range records {
		rates[i] = r.Rate
	}
	rng, err = stat.Range(rates)
	if err != nil {
		return 0, 0, 0, err
	}
	return len(records), rng, stat.NormalizedVariance(rates), nil
}
