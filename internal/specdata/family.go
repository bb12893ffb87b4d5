package specdata

import "fmt"

// yearMenu describes the component options vendors shipped in one year.
type yearMenu struct {
	year  int
	count int // announcements that year
	// speedsMHz are the processor clock options; later years extend past
	// the earlier envelope, which is what makes chronological prediction
	// an extrapolation problem.
	speedsMHz []float64
	busMHz    []float64
	l2KB      []float64
	l3KB      []float64 // empty → no L3 option
	memMHz    []float64
	memGB     []float64
}

// Family describes one processor family (the unit of the paper's
// chronological studies) plus its latent performance model.
type Family struct {
	// Name as used in the paper's figures (e.g. "Opteron 2").
	Name string
	// Chips and CoresPerChip describe the SMP organization.
	Chips        int
	CoresPerChip int
	// SMT marks families with Hyper-Threading options.
	SMT bool
	// L1IKB / L1DKB are the per-core L1 sizes.
	L1IKB, L1DKB float64
	// L2OnChip / L2Shared describe the L2 organization options.
	L2OnChipAlways bool

	companies  []string
	sysNames   []string
	procModels []string

	years []yearMenu

	// Latent performance model: rating ∝ base × speed^speedExp ×
	// (1 + l2Coef·log2(l2/l2Ref)) × (1 + memFreqCoef·(memMHz/memRef − 1))
	// × (1 + memSizeCoef·log2(memGB/4)) × (1 + busCoef·(bus/busRef − 1))
	// × chips^scaleExp × lognormal(noiseSigma) × drift^(year−2005).
	base        float64
	speedExp    float64
	l2Coef      float64
	l2RefKB     float64
	l3Coef      float64
	memFreqCoef float64
	memFreqRef  float64
	memSizeCoef float64
	busCoef     float64
	busRef      float64
	scaleExp    float64
	noiseSigma  float64
	drift       float64 // unmodeled year-over-year multiplier (compiler maturity etc.)
	// scaleSpread is the per-record SMP scaling-efficiency jitter (larger
	// machines scale less consistently).
	scaleSpread float64
	// l2OnChipCoef is the performance effect of an on-chip L2 for families
	// that shipped both organizations.
	l2OnChipCoef float64
}

// Years lists the years the family has announcements for.
func (f *Family) Years() []int {
	out := make([]int, len(f.years))
	for i, y := range f.years {
		out[i] = y.year
	}
	return out
}

// PaperStats returns the paper's published records/range/variance for the
// family (§4.1), used by the calibration tests.
func (f *Family) PaperStats() (records int, rng, variance float64) {
	s := paperStats[f.Name]
	return s.records, s.rng, s.variance
}

var paperStats = map[string]struct {
	records  int
	rng      float64
	variance float64
}{
	"Opteron":   {138, 1.40, 0.08},
	"Opteron 2": {152, 1.58, 0.11},
	"Opteron 4": {158, 1.70, 0.12},
	"Opteron 8": {58, 1.68, 0.13},
	"Pentium D": {71, 1.45, 0.10},
	"Pentium 4": {66, 3.72, 0.34},
	"Xeon":      {216, 1.34, 0.09},
}

// Families returns the seven families of the paper's chronological study.
func Families() []*Family {
	return []*Family{
		xeonFamily(), pentium4Family(), pentiumDFamily(),
		opteronFamily(1), opteronFamily(2), opteronFamily(4), opteronFamily(8),
	}
}

// FamilyByName looks a family up by its paper name.
func FamilyByName(name string) (*Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("specdata: unknown family %q", name)
}

func xeonFamily() *Family {
	return &Family{
		Name: "Xeon", Chips: 1, CoresPerChip: 1, SMT: true,
		L1IKB: 16, L1DKB: 16, L2OnChipAlways: true,
		companies:  []string{"Dell", "HP", "IBM", "Fujitsu"},
		sysNames:   []string{"PowerEdge 1850", "PowerEdge 2850", "ProLiant DL380", "ProLiant ML370", "xSeries 346", "PRIMERGY RX300"},
		procModels: []string{"Xeon DP", "Xeon MP", "Xeon 64-bit"},
		years: []yearMenu{
			{year: 2002, count: 30, speedsMHz: []float64{3000, 3200}, busMHz: []float64{400, 533}, l2KB: []float64{1024}, memMHz: []float64{266}, memGB: []float64{1, 2, 4}},
			{year: 2003, count: 40, speedsMHz: []float64{3000, 3200, 3400}, busMHz: []float64{533}, l2KB: []float64{1024}, memMHz: []float64{266, 333}, memGB: []float64{2, 4}},
			{year: 2004, count: 50, speedsMHz: []float64{3000, 3200, 3400}, busMHz: []float64{533, 800}, l2KB: []float64{1024}, l3KB: []float64{0, 2048}, memMHz: []float64{333, 400}, memGB: []float64{2, 4, 8}},
			{year: 2005, count: 48, speedsMHz: []float64{3200, 3400, 3600, 3800}, busMHz: []float64{533, 800}, l2KB: []float64{1024, 2048}, l3KB: []float64{0, 2048}, memMHz: []float64{333, 400}, memGB: []float64{4, 8}},
			{year: 2006, count: 48, speedsMHz: []float64{3400, 3600, 3800, 4000}, busMHz: []float64{800, 1066}, l2KB: []float64{2048}, l3KB: []float64{0, 2048}, memMHz: []float64{400, 533}, memGB: []float64{4, 8, 16}},
		},
		base: 5.2, speedExp: 0.85,
		l2Coef: 0.045, l2RefKB: 1024, l3Coef: 0.02,
		memFreqCoef: 0.05, memFreqRef: 400,
		memSizeCoef: 0.012, busCoef: 0.03, busRef: 800,
		scaleExp: 0.92, noiseSigma: 0.018, drift: 1.012,
	}
}

func pentium4Family() *Family {
	return &Family{
		Name: "Pentium 4", Chips: 1, CoresPerChip: 1, SMT: true,
		L1IKB: 12, L1DKB: 16, L2OnChipAlways: true,
		companies:  []string{"Dell", "HP", "Gateway", "Acer"},
		sysNames:   []string{"Precision 360", "Precision 380", "Dimension 8400", "Evo D500", "Veriton 7600"},
		procModels: []string{"Pentium 4", "Pentium 4 HT", "Pentium 4 EE"},
		years: []yearMenu{
			{year: 2002, count: 12, speedsMHz: []float64{1800, 2000, 2200, 2400}, busMHz: []float64{400}, l2KB: []float64{256, 512}, memMHz: []float64{266}, memGB: []float64{0.5, 1}},
			{year: 2003, count: 14, speedsMHz: []float64{2400, 2600, 2800, 3000}, busMHz: []float64{533, 800}, l2KB: []float64{512}, memMHz: []float64{333}, memGB: []float64{1, 2}},
			{year: 2004, count: 14, speedsMHz: []float64{2800, 3000, 3200, 3400}, busMHz: []float64{800}, l2KB: []float64{512, 1024}, memMHz: []float64{400}, memGB: []float64{1, 2}},
			{year: 2005, count: 13, speedsMHz: []float64{3000, 3200, 3400, 3600, 3800}, busMHz: []float64{800}, l2KB: []float64{1024, 2048}, memMHz: []float64{400, 533}, memGB: []float64{1, 2, 4}},
			{year: 2006, count: 13, speedsMHz: []float64{3200, 3400, 3600, 3800}, busMHz: []float64{800, 1066}, l2KB: []float64{2048}, memMHz: []float64{533}, memGB: []float64{2, 4}},
		},
		base: 4.6, speedExp: 0.9,
		l2Coef: 0.09, l2RefKB: 512, l3Coef: 0,
		memFreqCoef: 0.06, memFreqRef: 400,
		memSizeCoef: 0.008, busCoef: 0.05, busRef: 800,
		scaleExp: 0.92, noiseSigma: 0.013, drift: 1.010,
	}
}

func pentiumDFamily() *Family {
	return &Family{
		Name: "Pentium D", Chips: 1, CoresPerChip: 2, SMT: false,
		L1IKB: 12, L1DKB: 16, L2OnChipAlways: true,
		companies:  []string{"Dell", "HP", "Lenovo"},
		sysNames:   []string{"OptiPlex GX620", "Precision 390", "ThinkCentre M52", "dc7600"},
		procModels: []string{"Pentium D 800", "Pentium D 900"},
		years: []yearMenu{
			{year: 2005, count: 36, speedsMHz: []float64{2800, 3000, 3200}, busMHz: []float64{800}, l2KB: []float64{1024, 2048}, memMHz: []float64{400, 533}, memGB: []float64{1, 2, 4}},
			{year: 2006, count: 35, speedsMHz: []float64{2800, 3000, 3200, 3400, 3600}, busMHz: []float64{800, 1066}, l2KB: []float64{2048, 4096}, memMHz: []float64{533, 667}, memGB: []float64{2, 4}},
		},
		base: 4.9, speedExp: 0.88,
		l2Coef: 0.06, l2RefKB: 2048, l3Coef: 0,
		memFreqCoef: 0.05, memFreqRef: 533,
		memSizeCoef: 0.006, busCoef: 0.045, busRef: 800,
		scaleExp: 0.94, noiseSigma: 0.016, drift: 1.008,
	}
}

func opteronFamily(chips int) *Family {
	name := "Opteron"
	if chips > 1 {
		name = fmt.Sprintf("Opteron %d", chips)
	}
	counts := map[int][]int{
		1: {20, 34, 42, 42}, // 2003..2006, total 138
		2: {22, 38, 46, 46}, // 152
		4: {24, 40, 47, 47}, // 158
		8: {0, 14, 22, 22},  // 58 (8-way shipped from 2004)
	}[chips]
	sysByChips := map[int][]string{
		1: {"ProLiant DL145", "Sun Fire V20z", "PowerEdge SC1435", "eServer 325"},
		2: {"ProLiant DL385", "Sun Fire V40z 2P", "PowerEdge 6950 2P", "eServer 326"},
		4: {"ProLiant DL585", "Sun Fire V40z", "PowerEdge 6950", "eServer 460"},
		8: {"ProLiant DL785", "Sun Fire X4600", "Celestica A8440"},
	}
	modelsByChips := map[int][]string{
		1: {"Opteron 148", "Opteron 150", "Opteron 154", "Opteron 156"},
		2: {"Opteron 248", "Opteron 250", "Opteron 252", "Opteron 254", "Opteron 256"},
		4: {"Opteron 848", "Opteron 850", "Opteron 852", "Opteron 854", "Opteron 856"},
		8: {"Opteron 850", "Opteron 852", "Opteron 854", "Opteron 856", "Opteron 880"},
	}
	noise := map[int]float64{1: 0.018, 2: 0.026, 4: 0.027, 8: 0.030}[chips]
	scaleSpread := map[int]float64{1: 0, 2: 0.012, 4: 0.02, 8: 0.025}[chips]

	years := []yearMenu{
		{year: 2003, speedsMHz: []float64{2000, 2200}, busMHz: []float64{800}, l2KB: []float64{1024}, memMHz: []float64{333}, memGB: []float64{2, 4}},
		{year: 2004, speedsMHz: []float64{2000, 2200, 2400}, busMHz: []float64{800, 1000}, l2KB: []float64{1024}, memMHz: []float64{333, 400}, memGB: []float64{2, 4, 8}},
		{year: 2005, speedsMHz: []float64{2200, 2400, 2600}, busMHz: []float64{1000}, l2KB: []float64{1024}, memMHz: []float64{333, 400}, memGB: []float64{4, 8, 16}},
		{year: 2006, speedsMHz: []float64{2400, 2600, 2800}, busMHz: []float64{1000}, l2KB: []float64{1024}, memMHz: []float64{400, 533}, memGB: []float64{4, 8, 16, 32}},
	}
	var kept []yearMenu
	for i, y := range years {
		y.count = counts[i]
		if y.count > 0 {
			kept = append(kept, y)
		}
	}
	f := &Family{
		Name: name, Chips: chips, CoresPerChip: 1, SMT: false,
		L1IKB: 64, L1DKB: 64, L2OnChipAlways: false,
		companies:  []string{"HP", "Sun", "IBM", "Dell"},
		sysNames:   sysByChips[chips],
		procModels: modelsByChips[chips],
		years:      kept,
		base:       6.0, speedExp: 0.88,
		l2Coef: 0.05, l2RefKB: 1024, l3Coef: 0,
		memFreqCoef: 0.09, memFreqRef: 400,
		memSizeCoef: 0.015, busCoef: 0.02, busRef: 1000,
		scaleExp: 0.93, noiseSigma: noise, drift: 1.012,
	}
	f.scaleSpread = scaleSpread
	f.l2OnChipCoef = 0.04
	return f
}
