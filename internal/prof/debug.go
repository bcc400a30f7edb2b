package prof

import (
	"strings"

	"warp/internal/mcode"
)

// LoopFrame is one level of the loop-nest path enclosing a
// microinstruction: the source loop variable and the line of its for
// statement.
type LoopFrame struct {
	Var  string `json:"var"`
	Line int    `json:"line"`
}

// PCInfo maps one static µinstruction address back to W2 source: the
// primary source position of the statement it executes and the
// loop-nest path it sits inside (outermost first).  Line 0 marks a
// scheduled nop or a synthetic cycle (constant preamble, inter-region
// pad) with no source statement of its own.
type PCInfo struct {
	PC    int         `json:"pc"`
	Line  int         `json:"line"`
	Col   int         `json:"col,omitempty"`
	Loops []LoopFrame `json:"loops,omitempty"`
}

// DebugMap is the debug information the compiler carries alongside a
// cell microprogram: for every µPC, where it came from in the W2
// source.  All cells run the same microprogram, so one map covers the
// whole array.  It is exact and total — every static instruction has
// an entry, so every simulated cycle the profiler sees can be
// attributed.
type DebugMap struct {
	Module string   `json:"module"`
	NumPCs int      `json:"num_pcs"`
	PCs    []PCInfo `json:"pcs"`
	Source []string `json:"-"` // source lines; Source[i] is line i+1
}

// BuildDebugMap records the address → source mapping of the cell
// program, an instruction's µPC being its index in mcode.Fold's order.
// It reads the program and does not change it.  Instructions under the
// same enclosing loops share one loop-frame slice: a loop body folds to
// the frames around it.
func BuildDebugMap(module, src string, cell *mcode.CellProgram) *DebugMap {
	d := &DebugMap{Module: module, NumPCs: cell.NumInstrs()}
	if src != "" {
		d.Source = strings.Split(src, "\n")
	}
	d.PCs = make([]PCInfo, 0, d.NumPCs)
	mcode.Fold(cell.Items, []LoopFrame(nil), func(frames []LoopFrame, in *mcode.Instr, s *mcode.CellSite) []LoopFrame {
		d.PCs = append(d.PCs, PCInfo{PC: s.PC, Line: in.Pos.Line, Col: in.Pos.Col, Loops: frames})
		return frames
	}, func(frames []LoopFrame, l *mcode.LoopItem, _ *mcode.CellSite) []LoopFrame {
		var f LoopFrame
		if l.Src != nil {
			f = LoopFrame{Var: l.Src.Var, Line: l.Src.Pos.Line}
		}
		return append(append(make([]LoopFrame, 0, len(frames)+1), frames...), f)
	}, func(frames []LoopFrame, _ *mcode.LoopItem, _ *mcode.CellSite, _ int64, _ []LoopFrame) []LoopFrame {
		return frames
	})
	return d
}

// LineText returns the trimmed source text of a 1-based line, or "".
func (d *DebugMap) LineText(line int) string {
	if line < 1 || line > len(d.Source) {
		return ""
	}
	return strings.TrimSpace(d.Source[line-1])
}
