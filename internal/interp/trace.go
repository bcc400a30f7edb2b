package interp

import (
	"fmt"

	"warp/internal/w2"
)

// TraceEvent is one communication step of one cell: the material of the
// paper's Figure 4-2, which walks the first iterations of the
// polynomial program on the first two cells.
type TraceEvent struct {
	Cell  int
	Send  bool
	Chan  w2.Channel
	Var   string  // the internal variable received into / sent from
	Value float64 // the word transferred
}

func (e TraceEvent) String() string {
	op := "Receive"
	if e.Send {
		op = "Send"
	}
	return fmt.Sprintf("%-7s %-8s %g", op, e.Var, e.Value)
}

// RunTrace interprets the module like Run but records up to maxPerCell
// communication events for each of the first cells cells.
func RunTrace(info *w2.Info, inputs map[string][]float64, cells, maxPerCell int) ([][]TraceEvent, error) {
	host, err := info.HostMem(inputs)
	if err != nil {
		return nil, err
	}
	ncells := info.Module.Cells.Last - info.Module.Cells.First + 1
	traces := make([][]TraceEvent, ncells)

	streams := map[w2.Channel][]float64{}
	for i := 0; i < ncells; i++ {
		c := &cellState{
			info:  info,
			cell:  i,
			first: i == 0,
			last:  i == ncells-1,
			in:    streams,
			out:   map[w2.Channel][]float64{},
			host:  host,
			mem:   make(map[*w2.Symbol][]float64),
			vars:  make(map[*w2.Symbol]float64),
			idx:   make([]int64, len(info.Bounds)),
			inPos: map[w2.Channel]int{},
		}
		if i < cells {
			c.trace = &traces[i]
			c.traceMax = maxPerCell
		}
		for _, s := range info.Module.Cells.Body {
			call := s.(*w2.CallStmt)
			if err := c.stmts(info.Funcs[call.Name].Body); err != nil {
				return nil, fmt.Errorf("interp: cell %d: %w", i, err)
			}
		}
		streams = c.out
	}
	return traces, nil
}

// record appends a trace event if tracing is active.
func (c *cellState) record(send bool, ch w2.Channel, variable string, v float64) {
	if c.trace == nil || len(*c.trace) >= c.traceMax {
		return
	}
	*c.trace = append(*c.trace, TraceEvent{
		Cell: c.cell, Send: send, Chan: ch, Var: variable, Value: v,
	})
}
