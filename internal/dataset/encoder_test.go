package dataset

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// encSchema: numeric clock, flag smt, categorical bpred with numeric levels,
// categorical disk without levels, numeric constant.
func encSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("perf",
		Field{Name: "clock", Kind: Numeric},
		Field{Name: "smt", Kind: Flag},
		Field{Name: "bpred", Kind: Categorical, NumericLevels: map[string]float64{
			"bimodal": 1, "2level": 2, "comb": 3,
		}},
		Field{Name: "disk", Kind: Categorical},
		Field{Name: "l2lat", Kind: Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func encData(t *testing.T) *Dataset {
	t.Helper()
	d := New(encSchema(t))
	rows := []struct {
		clock float64
		smt   bool
		bpred string
		disk  string
		y     float64
	}{
		{1000, true, "bimodal", "scsi", 10},
		{2000, false, "2level", "sata", 20},
		{3000, true, "comb", "scsi", 30},
		{4000, false, "bimodal", "sata", 40},
	}
	for _, r := range rows {
		err := d.Append([]Value{Num(r.clock), FlagVal(r.smt), Cat(r.bpred), Cat(r.disk), Num(12)}, r.y)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestFitEncoderNNColumns(t *testing.T) {
	e, err := FitEncoder(encData(t), ForNN)
	if err != nil {
		t.Fatal(err)
	}
	// clock, smt, bpred one-hot ×3, disk one-hot ×2; l2lat constant → omitted.
	want := []string{"clock", "smt", "bpred=2level", "bpred=bimodal", "bpred=comb", "disk=sata", "disk=scsi"}
	got := e.ColumnNames()
	if len(got) != len(want) {
		t.Fatalf("columns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("columns = %v, want %v", got, want)
		}
	}
	if reason, ok := e.Omitted()["l2lat"]; !ok || reason == "" {
		t.Fatal("constant l2lat should be omitted with a reason")
	}
}

func TestFitEncoderLRColumns(t *testing.T) {
	e, err := FitEncoder(encData(t), ForLR)
	if err != nil {
		t.Fatal(err)
	}
	// LR keeps clock, smt, mapped bpred; drops unmapped disk and constant l2lat.
	want := []string{"clock", "smt", "bpred"}
	got := e.ColumnNames()
	if len(got) != len(want) {
		t.Fatalf("columns = %v, want %v", got, want)
	}
	om := e.Omitted()
	if _, ok := om["disk"]; !ok {
		t.Fatal("unmapped categorical should be omitted for LR")
	}
}

func TestEncodeRowNNScaling(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.EncodeRow(d.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	// clock 1000 scales to 0 over [1000,4000]; smt=true → 1;
	// bpred=bimodal → one-hot (0,1,0); disk=scsi → (0,1).
	want := []float64{0, 1, 0, 1, 0, 0, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	x3, _ := e.EncodeRow(d.Row(3))
	if x3[0] != 1 {
		t.Fatalf("clock 4000 should scale to 1, got %v", x3[0])
	}
}

func TestEncodeRowLRMapping(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForLR)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.EncodeRow(d.Row(2)) // comb → mapped 3, range [1,3] → 1
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[2]-1) > 1e-12 {
		t.Fatalf("mapped bpred = %v, want 1", x[2])
	}
}

func TestEncodeRowExtrapolatesOutsideTrainingRange(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.EncodeRow([]Value{Num(5500), FlagVal(false), Cat("comb"), Cat("scsi"), Num(12)})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] <= 1 {
		t.Fatalf("5500 MHz should scale beyond 1 (extrapolation), got %v", x[0])
	}
}

func TestEncodeRowUnseenCategoryOneHotAllZero(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.EncodeRow([]Value{Num(2000), FlagVal(false), Cat("perfect"), Cat("scsi"), Num(12)})
	if err != nil {
		t.Fatal(err)
	}
	// Unseen bpred category → all three one-hot columns zero.
	if x[2] != 0 || x[3] != 0 || x[4] != 0 {
		t.Fatalf("unseen category should encode to zeros, got %v", x[2:5])
	}
}

func TestEncodeRowUnmappedCategoryLRIsError(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForLR)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.EncodeRow([]Value{Num(2000), FlagVal(false), Cat("perfect"), Cat("scsi"), Num(12)})
	if err == nil {
		t.Fatal("LR encoding of unmapped category: want error")
	}
}

// TestEncodeRowsMatchesEncodeRow pins the batch encoder to the per-row
// one: every encoded row equals EncodeRow's, a failing record is named
// by its batch position, and a warmed buffer encodes without allocating.
func TestEncodeRowsMatchesEncodeRow(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForLR)
	if err != nil {
		t.Fatal(err)
	}
	var buf RowBuffer
	rows, err := e.EncodeRows(&buf, d.Rows(0, d.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range rows {
		want, err := e.EncodeRow(d.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(x, want) {
			t.Fatalf("row %d: EncodeRows %v, EncodeRow %v", i, x, want)
		}
	}
	bad := [][]Value{d.Row(0), {Num(2000), FlagVal(false), Cat("perfect"), Cat("scsi"), Num(12)}}
	if _, err := e.EncodeRows(&buf, bad); err == nil || !strings.Contains(err.Error(), "row 1:") {
		t.Fatalf("unmapped category in batch row 1: err = %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { e.EncodeRows(&buf, d.Rows(0, d.Len())) }); allocs != 0 {
		t.Fatalf("warmed EncodeRows allocates %v/op, want 0", allocs)
	}
}

func TestTargetScalingRoundTrip(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{10, 25, 40, 55} {
		got := e.UnscaleTarget(e.ScaleTarget(y))
		if math.Abs(got-y) > 1e-9 {
			t.Fatalf("round trip %v → %v", y, got)
		}
	}
	if e.ScaleTarget(10) != 0 || e.ScaleTarget(40) != 1 {
		t.Fatal("target min/max should scale to 0/1")
	}
}

func TestLRTargetNotScaled(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForLR)
	if err != nil {
		t.Fatal(err)
	}
	if e.ScaleTarget(25) != 25 || e.UnscaleTarget(25) != 25 {
		t.Fatal("LR mode must leave the target in original units")
	}
}

func TestTransformShapes(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := e.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 4 || len(y) != 4 || len(x[0]) != e.NumColumns() {
		t.Fatalf("shapes: %dx%d, y %d", len(x), len(x[0]), len(y))
	}
}

// TestTransformAllocs pins Transform's flat encoding: the matrix, its
// backing array and the target vector are its only allocations, so the
// count is the same at 10 rows and at 1,000.
func TestTransformAllocs(t *testing.T) {
	for _, n := range []int{10, 1000} {
		d := New(encSchema(t))
		for i := 0; i < n; i++ {
			row := []Value{Num(float64(1000 + i)), FlagVal(i%2 == 0), Cat([]string{"bimodal", "2level", "comb"}[i%3]), Cat("scsi"), Num(12)}
			if err := d.Append(row, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		e, err := FitEncoder(d, ForNN)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := e.Transform(d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Errorf("n=%d: Transform allocates %v/op, want 3", n, allocs)
		}
	}
}

func TestSourceField(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	// Columns 2,3,4 all derive from bpred.
	for c := 2; c <= 4; c++ {
		if e.SourceField(c) != "bpred" {
			t.Fatalf("SourceField(%d) = %q", c, e.SourceField(c))
		}
	}
}

func TestFitEncoderErrors(t *testing.T) {
	if _, err := FitEncoder(New(encSchema(t)), ForNN); err == nil {
		t.Fatal("empty dataset: want error")
	}
	// All-constant inputs → no usable fields.
	s, err := NewSchema("y", Field{Name: "k", Kind: Numeric})
	if err != nil {
		t.Fatal(err)
	}
	d := New(s)
	for i := 0; i < 3; i++ {
		if err := d.Append([]Value{Num(7)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FitEncoder(d, ForNN); err == nil {
		t.Fatal("all-constant inputs: want error")
	}
	// Constant target under NN scaling.
	s2, _ := NewSchema("y", Field{Name: "x", Kind: Numeric})
	d2 := New(s2)
	for i := 0; i < 3; i++ {
		if err := d2.Append([]Value{Num(float64(i))}, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FitEncoder(d2, ForNN); err == nil {
		t.Fatal("constant target under NN: want error")
	}
}

func TestEncodeRowArityError(t *testing.T) {
	d := encData(t)
	e, err := FitEncoder(d, ForNN)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EncodeRow([]Value{Num(1)}); err == nil {
		t.Fatal("short row: want error")
	}
}
