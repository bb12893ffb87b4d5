package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary trace format (the analog of SimpleScalar's EIO traces): a small
// header with the benchmark profile, then fixed-width instruction records.
//
//	magic "PPTR" | version u32 | profile-JSON len u32 | profile JSON |
//	instr count u64 | records
//
// Each record: class u8 | taken u8 | dep i32 | bb i32 | pc u64 | addr u64
// (26 bytes, little endian).

var traceMagic = [4]byte{'P', 'P', 'T', 'R'}

const traceVersion = 1

// WriteTo serializes the trace (profile included) so a generated workload
// can be stored and replayed by other tools.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	if t.profile == nil {
		return 0, errors.New("trace: cannot serialize a trace without a profile")
	}
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.Write(traceMagic[:])); err != nil {
		return n, err
	}
	profJSON, err := json.Marshal(t.profile)
	if err != nil {
		return n, err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], traceVersion)
	if err := count(bw.Write(u32[:])); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(profJSON)))
	if err := count(bw.Write(u32[:])); err != nil {
		return n, err
	}
	if err := count(bw.Write(profJSON)); err != nil {
		return n, err
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(t.Instrs)))
	if err := count(bw.Write(u64[:])); err != nil {
		return n, err
	}
	var rec [26]byte
	for i := range t.Instrs {
		ins := &t.Instrs[i]
		rec[0] = byte(ins.Class)
		rec[1] = 0
		if ins.Taken {
			rec[1] = 1
		}
		binary.LittleEndian.PutUint32(rec[2:6], uint32(ins.Dep))
		binary.LittleEndian.PutUint32(rec[6:10], uint32(ins.BB))
		binary.LittleEndian.PutUint64(rec[10:18], ins.PC)
		binary.LittleEndian.PutUint64(rec[18:26], ins.Addr)
		if err := count(bw.Write(rec[:])); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("trace: bad magic; not a trace file")
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(u32[:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	profLen := binary.LittleEndian.Uint32(u32[:])
	if profLen > 1<<20 {
		return nil, fmt.Errorf("trace: implausible profile size %d", profLen)
	}
	profJSON := make([]byte, profLen)
	if _, err := io.ReadFull(br, profJSON); err != nil {
		return nil, err
	}
	prof := &Profile{}
	if err := json.Unmarshal(profJSON, prof); err != nil {
		return nil, fmt.Errorf("trace: decoding profile: %w", err)
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(u64[:])
	if n == 0 || n > 1<<31 {
		return nil, fmt.Errorf("trace: implausible instruction count %d", n)
	}
	instrs := make([]Instr, n)
	var rec [26]byte
	for i := range instrs {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		cls := Class(rec[0])
		if int(cls) >= numClasses {
			return nil, fmt.Errorf("trace: record %d has invalid class %d", i, rec[0])
		}
		instrs[i] = Instr{
			Class: cls,
			Taken: rec[1] != 0,
			Dep:   int32(binary.LittleEndian.Uint32(rec[2:6])),
			BB:    int32(binary.LittleEndian.Uint32(rec[6:10])),
			PC:    binary.LittleEndian.Uint64(rec[10:18]),
			Addr:  binary.LittleEndian.Uint64(rec[18:26]),
		}
	}
	return &Trace{Name: prof.Name, Instrs: instrs, profile: prof}, nil
}

// LoadOrGenerate reads the trace file at path, or, when path is empty, generates the
// named benchmark's trace as GenerateBenchmark does.
func LoadOrGenerate(path, bench string, n int, seed int64) (*Trace, error) {
	if path == "" {
		return GenerateBenchmark(bench, n, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}
