package cpu

// OracleSimulate exposes the direct-walk oracle to the external tests,
// which need package space and so cannot live in package cpu.
func OracleSimulate(e *Evaluator, cfg Config) (Result, error) { return oracleSimulate(e, cfg) }

// StageCount is one memo's size and how many computations it started.
type StageCount struct{ Entries, Runs int }

// StageCounts reports every memo of the evaluator by stage name.
func (e *Evaluator) StageCounts() map[string]StageCount {
	return map[string]StageCount{
		"l1i":   {len(e.l1i.entries), int(e.l1i.runs.Load())},
		"l1d":   {len(e.l1d.entries), int(e.l1d.runs.Load())},
		"itlb":  {len(e.itlb.entries), int(e.itlb.runs.Load())},
		"dtlb":  {len(e.dtlb.entries), int(e.dtlb.runs.Load())},
		"l2":    {len(e.l2.entries), int(e.l2.runs.Load())},
		"stack": {len(e.stacks.entries), int(e.stacks.runs.Load())},
		"pred":  {len(e.preds.entries), int(e.preds.runs.Load())},
	}
}
