package specdata

import (
	"math"
	"testing"

	"perfpred/internal/dataset"
	"perfpred/internal/stat"
)

func TestSchemaHas32Fields(t *testing.T) {
	s := Schema()
	if len(s.Fields) != 32 {
		t.Fatalf("schema has %d fields, want 32 (paper §4.1)", len(s.Fields))
	}
	if s.Target != "spec_rate" {
		t.Fatalf("target = %q", s.Target)
	}
}

// totalRecords is the family's announcement count over all years.
func totalRecords(f *Family) int {
	n := 0
	for _, y := range f.years {
		n += y.count
	}
	return n
}

func TestFamiliesComplete(t *testing.T) {
	fams := Families()
	if len(fams) != 7 {
		t.Fatalf("got %d families, want 7", len(fams))
	}
	want := map[string]int{
		"Xeon": 216, "Pentium 4": 66, "Pentium D": 71,
		"Opteron": 138, "Opteron 2": 152, "Opteron 4": 158, "Opteron 8": 58,
	}
	for _, f := range fams {
		if got := totalRecords(f); got != want[f.Name] {
			t.Errorf("%s: %d records, paper says %d", f.Name, got, want[f.Name])
		}
	}
}

func TestFamilyByName(t *testing.T) {
	f, err := FamilyByName("Opteron 4")
	if err != nil || f.Chips != 4 {
		t.Fatalf("%v %v", f, err)
	}
	if _, err := FamilyByName("Itanium"); err == nil {
		t.Fatal("unknown family: want error")
	}
}

func TestFamiliesHave2005And2006(t *testing.T) {
	// The chronological experiments need both years in every family.
	for _, f := range Families() {
		has := map[int]bool{}
		for _, y := range f.Years() {
			has[y] = true
		}
		if !has[2005] || !has[2006] {
			t.Errorf("%s: years %v missing 2005/2006", f.Name, f.Years())
		}
	}
}

func TestGenerateCountsAndSchema(t *testing.T) {
	s := Schema()
	for _, f := range Families() {
		recs, err := Generate(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != totalRecords(f) {
			t.Errorf("%s: generated %d, want %d", f.Name, len(recs), totalRecords(f))
		}
		d := dataset.New(s)
		for _, rec := range recs {
			if rec.Rate <= 0 {
				t.Fatalf("%s: non-positive rate", f.Name)
			}
			if err := d.Append(rec.Row, rec.Rate); err != nil {
				t.Fatalf("%s: row does not match schema: %v", f.Name, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f, _ := FamilyByName("Xeon")
	a, err := Generate(f, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(f, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Rate != b[i].Rate {
			t.Fatal("not deterministic")
		}
	}
	c, err := Generate(f, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Rate != c[i].Rate {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical data")
	}
}

// TestSpecFamilyStatistics checks the §4.1 calibration: generated ranges
// near the published values for every family.
func TestSpecFamilyStatistics(t *testing.T) {
	for _, f := range Families() {
		recs, err := Generate(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, rng, nvar, err := FamilyStatistics(recs)
		if err != nil {
			t.Fatal(err)
		}
		wantN, wantRng, wantVar := f.PaperStats()
		if n != wantN {
			t.Errorf("%s: %d records, paper %d", f.Name, n, wantN)
		}
		if rng < wantRng*0.72 || rng > wantRng*1.38 {
			t.Errorf("%s: range %.2f outside ±~35%% of paper %.2f", f.Name, rng, wantRng)
		}
		t.Logf("%s: n=%d range=%.2f (paper %.2f) nvar=%.3f (paper %.2f)", f.Name, n, rng, wantRng, nvar, wantVar)
	}
}

func TestRatingMatchesAppTimes(t *testing.T) {
	f, _ := FamilyByName("Pentium D")
	recs, err := Generate(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:10] {
		if len(rec.AppTimes) != 12 {
			t.Fatalf("%d app times", len(rec.AppTimes))
		}
		// The rating is the geometric mean of the ref/time ratios.
		refs, logSum := RefTimes(), 0.0
		for _, app := range IntApps() {
			logSum += math.Log(refs[app] / rec.AppTimes[app])
		}
		rating := math.Exp(logSum / float64(len(rec.AppTimes)))
		if math.Abs(rating-rec.Rate)/rec.Rate > 1e-9 {
			t.Fatalf("rating %v != rate %v", rating, rec.Rate)
		}
	}
}

func TestYear2006FasterThan2005(t *testing.T) {
	// Technology drift: the mean rating must rise year over year, and the
	// 2006 max clock must extend beyond 2005's (the extrapolation setup).
	s := Schema()
	axes := []string{"speed_mhz", "bus_mhz", "mem_mhz"}
	for _, f := range Families() {
		recs, err := Generate(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		var r05, r06 []float64
		max05 := map[string]float64{}
		max06 := map[string]float64{}
		for _, rec := range recs {
			var maxes map[string]float64
			switch rec.Year {
			case 2005:
				r05 = append(r05, rec.Rate)
				maxes = max05
			case 2006:
				r06 = append(r06, rec.Rate)
				maxes = max06
			default:
				continue
			}
			for _, a := range axes {
				if v := rec.Row[s.FieldIndex(a)].Float(); v > maxes[a] {
					maxes[a] = v
				}
			}
		}
		if stat.Mean(r06) <= stat.Mean(r05) {
			t.Errorf("%s: 2006 mean %.1f not above 2005 mean %.1f", f.Name, stat.Mean(r06), stat.Mean(r05))
		}
		extended := false
		for _, a := range axes {
			if max06[a] > max05[a] {
				extended = true
			}
		}
		if !extended {
			t.Errorf("%s: 2006 envelope does not extend 2005 on any axis (speed/bus/mem)", f.Name)
		}
	}
}

func TestBuildDatasetYearFilter(t *testing.T) {
	f, _ := FamilyByName("Pentium D")
	recs, err := Generate(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	d05, err := BuildDataset(recs, 2005)
	if err != nil {
		t.Fatal(err)
	}
	d06, err := BuildDataset(recs, 2006)
	if err != nil {
		t.Fatal(err)
	}
	all, err := BuildDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	if d05.Len()+d06.Len() != all.Len() {
		t.Fatalf("%d + %d != %d", d05.Len(), d06.Len(), all.Len())
	}
	if d05.Len() != 36 || d06.Len() != 35 {
		t.Fatalf("PD year counts %d/%d", d05.Len(), d06.Len())
	}
	if _, err := BuildDataset(recs, 1999); err == nil {
		t.Fatal("empty year: want error")
	}
	if _, err := BuildDataset(nil); err == nil {
		t.Fatal("no records: want error")
	}
}

func TestMultiprocessorScaling(t *testing.T) {
	// Same-generation Opteron N-way rates should grow with N but
	// sublinearly.
	means := map[int]float64{}
	for _, chips := range []int{1, 2, 4, 8} {
		name := "Opteron"
		if chips > 1 {
			name = "Opteron " + string(rune('0'+chips))
		}
		f, err := FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Generate(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		var r05 []float64
		for _, rec := range recs {
			if rec.Year == 2005 {
				r05 = append(r05, rec.Rate)
			}
		}
		means[chips] = stat.Mean(r05)
	}
	if !(means[8] > means[4] && means[4] > means[2] && means[2] > means[1]) {
		t.Fatalf("rates do not grow with SMP ways: %v", means)
	}
	if means[8] >= 8*means[1] {
		t.Fatalf("8-way scaling should be sublinear: %v vs %v", means[8], 8*means[1])
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, 1); err == nil {
		t.Fatal("nil family: want error")
	}
	empty := &Family{Name: "empty"}
	if _, err := Generate(empty, 1); err == nil {
		t.Fatal("no years: want error")
	}
}

func TestBuildAppDataset(t *testing.T) {
	f, _ := FamilyByName("Pentium D")
	recs, err := Generate(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildAppDataset(recs, "mcf", 2005)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 36 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.Schema().Target != "mcf_seconds" {
		t.Fatalf("target = %q", d.Schema().Target)
	}
	// Targets must be the recorded app times.
	found := 0
	for _, rec := range recs {
		if rec.Year != 2005 {
			continue
		}
		if d.Target(found) != rec.AppTimes["mcf"] {
			t.Fatalf("record %d target mismatch", found)
		}
		found++
	}
	if _, err := BuildAppDataset(recs, "doom3", 2005); err == nil {
		t.Fatal("unknown app: want error")
	}
	if _, err := BuildAppDataset(recs, "mcf", 1999); err == nil {
		t.Fatal("empty year: want error")
	}
	if _, err := BuildAppDataset(nil, "mcf"); err == nil {
		t.Fatal("no records: want error")
	}
}
