package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"unsafe"
)

func TestAllProfilesValidate(t *testing.T) {
	if len(Profiles()) != 12 {
		t.Fatalf("want 12 profiles, got %d", len(Profiles()))
	}
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestFiguredProfiles(t *testing.T) {
	fp := FiguredProfiles()
	want := []string{"applu", "equake", "gcc", "mesa", "mcf"}
	if len(fp) != len(want) {
		t.Fatalf("got %d figured profiles", len(fp))
	}
	for i, p := range fp {
		if p.Name != want[i] {
			t.Errorf("figured[%d] = %s, want %s", i, p.Name, want[i])
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Fatalf("%v, %v", p, err)
	}
	if _, err := ProfileByName("doom3"); err == nil {
		t.Fatal("unknown benchmark: want error")
	}
}

func TestGenerateBenchmark(t *testing.T) {
	p, _ := ProfileByName("gcc")
	tr, err := GenerateBenchmark("gcc", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != p.SimLen || tr.Profile() != p {
		t.Fatalf("length 0: %d instructions of %s, want SimLen %d of gcc", tr.Len(), tr.Profile().Name, p.SimLen)
	}
	if tr, err = GenerateBenchmark("gcc", 1000, 1); err != nil || tr.Len() != 1000 {
		t.Fatalf("length 1000: %v", err)
	}
	if _, err := GenerateBenchmark("gcc", -1, 1); err == nil {
		t.Fatal("negative length: want error")
	}
	if _, err := GenerateBenchmark("doom3", 1000, 1); err == nil {
		t.Fatal("unknown benchmark: want error")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := func() *Profile {
		p := *profiles[0]
		return &p
	}
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Mix = map[Class]float64{IntALU: 0.5} },
		func(p *Profile) { p.Loops = nil },
		func(p *Profile) { p.Loops = []Loop{{Blocks: 0, SpacingB: 64, SubAccesses: 1, Frac: 0.5}} },
		func(p *Profile) { p.Loops = []Loop{{Blocks: 10, SpacingB: 32, SubAccesses: 1, Frac: 0.5}} },
		func(p *Profile) { p.Loops = []Loop{{Blocks: 10, SpacingB: 64, SubAccesses: 9, Frac: 0.5}} },
		func(p *Profile) { p.Loops = []Loop{{Blocks: 10, SpacingB: 64, SubAccesses: 1, Frac: 0}} },
		func(p *Profile) { p.Loops = []Loop{{Blocks: 10, SpacingB: 64, SubAccesses: 1, Frac: 1.5}} },
		func(p *Profile) {
			p.Loops = []Loop{{Blocks: 1 << 24, SpacingB: 1024, SubAccesses: 1, Frac: 0.5}}
		},
		func(p *Profile) { p.DistantStrideB = 0 },
		func(p *Profile) { p.CodeKB = 0 },
		func(p *Profile) { p.BiasAlpha = 0 },
		func(p *Profile) { p.PatternFrac = -0.1 },
		func(p *Profile) { p.DepMean = 0.5 },
		func(p *Profile) { p.MLPCap = 0.9 },
		func(p *Profile) { p.Phases = 0 },
	}
	for i, mutate := range cases {
		p := base()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	p, _ := ProfileByName("gcc")
	tr, err := Generate(p, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 20000 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Name != "gcc" || tr.Profile() != p {
		t.Fatal("metadata wrong")
	}
}

func TestGenerateErrors(t *testing.T) {
	p, _ := ProfileByName("gcc")
	if _, err := Generate(p, 0, 1); err == nil {
		t.Fatal("n=0: want error")
	}
	bad := *p
	bad.Phases = 0
	if _, err := Generate(&bad, 100, 1); err == nil {
		t.Fatal("invalid profile: want error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("mcf")
	a, err := Generate(p, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	c, err := Generate(p, 5000, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Instrs {
		if a.Instrs[i] == c.Instrs[i] {
			same++
		}
	}
	if same == len(a.Instrs) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"applu", "gcc", "mcf"} {
		p, _ := ProfileByName(name)
		tr, err := Generate(p, 60000, 7)
		if err != nil {
			t.Fatal(err)
		}
		mix := tr.Mix()
		for c := Class(0); int(c) < numClasses; c++ {
			want := p.Mix[c]
			got := mix[c]
			if math.Abs(got-want) > 0.05 {
				t.Errorf("%s: class %v fraction %.3f, profile says %.3f", name, c, got, want)
			}
		}
	}
}

func TestGenerateInstructionFields(t *testing.T) {
	p, _ := ProfileByName("equake")
	tr, err := Generate(p, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	codeLo := uint64(codeBase)
	codeHi := codeLo + uint64(p.CodeKB)*1024 + 4096
	branchPCs := map[uint64]bool{}
	for i, ins := range tr.Instrs {
		if ins.PC < codeLo || ins.PC > codeHi {
			t.Fatalf("instr %d: PC %#x outside code region", i, ins.PC)
		}
		if ins.PC%4 != 0 {
			t.Fatalf("instr %d: unaligned PC", i)
		}
		switch ins.Class {
		case Load, Store:
			if ins.Addr < loopBase {
				t.Fatalf("instr %d: data address %#x below data regions", i, ins.Addr)
			}
		case Branch:
			if ins.Addr != 0 {
				t.Fatalf("instr %d: branch with data address", i)
			}
			branchPCs[ins.PC] = true
		default:
			if ins.Addr != 0 {
				t.Fatalf("instr %d: non-memory op with address", i)
			}
		}
		if ins.Dep < 0 || int(ins.Dep) > i {
			t.Fatalf("instr %d: dep distance %d invalid", i, ins.Dep)
		}
	}
	// Each basic block ends in its own branch site, one per static block.
	if len(branchPCs) > p.BranchSites {
		t.Fatalf("%d distinct branch PCs, more than the %d branch sites", len(branchPCs), p.BranchSites)
	}
}

func TestMeanDepDistanceTracksProfile(t *testing.T) {
	hi, _ := ProfileByName("applu") // DepMean 6.5
	lo, _ := ProfileByName("mcf")   // DepMean 2.2
	thi, err := Generate(hi, 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	tlo, err := Generate(lo, 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if thi.MeanDepDistance() <= tlo.MeanDepDistance() {
		t.Fatalf("applu dep %.2f should exceed mcf dep %.2f",
			thi.MeanDepDistance(), tlo.MeanDepDistance())
	}
}

func TestPhasesShiftBasicBlocks(t *testing.T) {
	p, _ := ProfileByName("gcc") // 4 phases
	tr, err := Generate(p, 40000, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Every basic block ends in one branch at its own PC, so a phase's set
	// of branch PCs is its set of blocks.
	quarter := tr.Len() / 4
	branchPCsIn := func(lo, hi int) map[uint64]bool {
		s := map[uint64]bool{}
		for _, ins := range tr.Instrs[lo:hi] {
			if ins.Class == Branch {
				s[ins.PC] = true
			}
		}
		return s
	}
	first := branchPCsIn(0, quarter)
	second := branchPCsIn(quarter, 2*quarter)
	overlap := 0
	for pc := range second {
		if first[pc] {
			overlap++
		}
	}
	// Phases concentrate on disjoint block slices: low overlap expected.
	if len(second) == 0 || overlap > len(second)/4 {
		t.Fatalf("phase branch-PC overlap %d of %d too high", overlap, len(second))
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		IntALU: "ialu", IntMult: "imult", FPALU: "fpalu",
		FPMult: "fpmult", Load: "load", Store: "store", Branch: "branch",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if numClasses != len(want) {
		t.Fatalf("%d classes, want %d", numClasses, len(want))
	}
}

func TestBranchOutcomesHaveBothValues(t *testing.T) {
	p, _ := ProfileByName("gcc")
	tr, err := Generate(p, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	taken, not := 0, 0
	for _, ins := range tr.Instrs {
		if ins.Class == Branch {
			if ins.Taken {
				taken++
			} else {
				not++
			}
		}
	}
	if taken == 0 || not == 0 {
		t.Fatalf("degenerate branch outcomes: %d taken, %d not", taken, not)
	}
}

func TestGammaBetaSamplers(t *testing.T) {
	r := newTestRand(13)
	// Beta(α,α) is symmetric with mean 1/2; check sample mean and bounds.
	s, n := 0.0, 2000
	for i := 0; i < n; i++ {
		v := betaSample(r, 0.2)
		if v < 0 || v > 1 {
			t.Fatalf("beta sample %v out of [0,1]", v)
		}
		s += v
	}
	if m := s / float64(n); math.Abs(m-0.5) > 0.05 {
		t.Fatalf("beta mean %v, want ~0.5", m)
	}
	// Gamma(k,1) has mean k.
	s = 0
	for i := 0; i < n; i++ {
		s += gammaSample(r, 3.0)
	}
	if m := s / float64(n); math.Abs(m-3) > 0.2 {
		t.Fatalf("gamma mean %v, want ~3", m)
	}
	// Geometric-ish sampler has roughly the requested mean.
	s = 0
	for i := 0; i < n; i++ {
		s += float64(geomSample(r, 4))
	}
	if m := s / float64(n); math.Abs(m-4) > 0.5 {
		t.Fatalf("geom mean %v, want ~4", m)
	}
	if geomSample(r, 0) != 0 {
		t.Fatal("geomSample(0) should be 0")
	}
}

// TestInstrSize pins the packed record: a trace holds one Instr per dynamic
// instruction, so each byte here costs a byte per instruction.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 24 {
		t.Fatalf("Instr is %d bytes, want 24", got)
	}
}

// recordDigest hashes every instruction's (Class, PC, Addr, Taken, Dep) in
// a fixed little-endian encoding, independent of Instr's memory layout.
func recordDigest(tr *Trace) string {
	h := sha256.New()
	var rec [22]byte
	for _, ins := range tr.Instrs {
		rec[0] = byte(ins.Class)
		binary.LittleEndian.PutUint64(rec[1:9], ins.PC)
		binary.LittleEndian.PutUint64(rec[9:17], ins.Addr)
		rec[17] = 0
		if ins.Taken {
			rec[17] = 1
		}
		binary.LittleEndian.PutUint32(rec[18:22], uint32(ins.Dep))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRecordDigests pins the generator's output record by record,
// not only through the cycle counts the simulator derives from it.
func TestGoldenRecordDigests(t *testing.T) {
	for _, c := range []struct{ bench, want string }{
		{"gcc", "26bf388dc24ae6235816f37f4ee5575ebafbc09a7a00cd87836d67c1cf2bba4b"},
		{"mcf", "50ff5818eccfd2a8c53233f6c74037a14ebb63ff35f894fc1f0d21cce90f7950"},
	} {
		tr, err := GenerateBenchmark(c.bench, 50_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordDigest(tr); got != c.want {
			t.Errorf("%s: record digest %s, want %s", c.bench, got, c.want)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	p, err := ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, p.SimLen, 1); err != nil {
			b.Fatal(err)
		}
	}
}
