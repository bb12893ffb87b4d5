package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceWriteReadRoundTrip(t *testing.T) {
	p, _ := ProfileByName("gcc")
	tr, err := Generate(p, 10_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Len() != tr.Len() {
		t.Fatalf("meta mismatch: %s/%d", back.Name, back.Len())
	}
	for i := range tr.Instrs {
		if tr.Instrs[i] != back.Instrs[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	// The profile must survive (the simulator needs MLPCap etc.).
	if back.Profile() == nil || back.Profile().MLPCap != p.MLPCap {
		t.Fatal("profile lost in round trip")
	}
	if err := back.Profile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty: want error")
	}
	if _, err := ReadTrace(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic: want error")
	}
	// Truncated after a valid header start.
	p, _ := ProfileByName("applu")
	tr, err := Generate(p, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated: want error")
	}
}

func TestWriteToRequiresProfile(t *testing.T) {
	bare := &Trace{Name: "x", Instrs: []Instr{{}}}
	var buf bytes.Buffer
	if _, err := bare.WriteTo(&buf); err == nil {
		t.Fatal("profile-less trace: want error")
	}
}

func TestLoadOrGenerate(t *testing.T) {
	tr, err := LoadOrGenerate("", "gcc", 5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gcc.pptr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := LoadOrGenerate(path, "ignored", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "gcc" || back.Len() != 5_000 || back.Instrs[4_999] != tr.Instrs[4_999] {
		t.Fatalf("loaded %s/%d, want the written gcc trace", back.Name, back.Len())
	}
	if _, err := LoadOrGenerate(filepath.Join(t.TempDir(), "missing"), "gcc", 0, 1); err == nil {
		t.Fatal("missing file: want error")
	}
}
