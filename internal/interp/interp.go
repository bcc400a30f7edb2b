// Package interp is a direct reference interpreter for W2 programs: it
// executes the programmer's model (asynchronous blocking queues,
// sequential cell semantics) without any compilation.  Because the
// compiler only accepts unidirectional programs, the array can be
// evaluated cell by cell: run cell 0 against the host streams, feed its
// output streams to cell 1, and so on.  The interpreter is the oracle
// the compiled-and-simulated results are tested against.
package interp

import (
	"context"
	"fmt"

	"warp/internal/w2"
)

// Run interprets the module over the given input arrays (keyed by "in"
// parameter name) and returns the output arrays (keyed by "out"
// parameter name).
func Run(info *w2.Info, inputs map[string][]float64) (map[string][]float64, error) {
	return runContext(context.Background(), info, inputs)
}

// RunSource parses and analyses src, then interprets it like Run: the
// oracle a compiled program of the same source is checked against.
func RunSource(src string, inputs map[string][]float64) (map[string][]float64, error) {
	mod, err := w2.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := w2.Analyze(mod)
	if err != nil {
		return nil, err
	}
	return Run(info, inputs)
}

// runContext interprets like Run but aborts once ctx is cancelled: the
// statement loop polls the context every few thousand statements, so an
// oracle run on a large problem respects the same deadlines as the
// simulator (sim.Controls.Ctx).  The returned error wraps ctx.Err().  A
// nil ctx behaves like Run.
func runContext(ctx context.Context, info *w2.Info, inputs map[string][]float64) (map[string][]float64, error) {
	host, err := info.HostMem(inputs)
	if err != nil {
		return nil, err
	}
	ncells := info.Module.Cells.Last - info.Module.Cells.First + 1

	streams := map[w2.Channel][]float64{}
	var steps int64 // statement count shared across cells for the ctx poll
	for i := 0; i < ncells; i++ {
		c := &cellState{
			info:  info,
			ctx:   ctx,
			steps: &steps,
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
		for _, s := range info.Module.Cells.Body {
			call := s.(*w2.CallStmt)
			if err := c.stmts(info.Funcs[call.Name].Body); err != nil {
				return nil, fmt.Errorf("interp: cell %d: %w", i, err)
			}
		}
		streams = c.out
	}
	return info.Outputs(host), nil
}

// BuildHostMem is info.HostMem(inputs); kept for benchmark/, see
// ROADMAP 1(c).
func BuildHostMem(info *w2.Info, inputs map[string][]float64) ([]float64, error) {
	return info.HostMem(inputs)
}

// ExtractOutputs is info.Outputs(host); kept for benchmark/, see
// ROADMAP 1(c).
func ExtractOutputs(info *w2.Info, host []float64) map[string][]float64 {
	return info.Outputs(host)
}

type cellState struct {
	info        *w2.Info
	ctx         context.Context
	steps       *int64 // whole-run statement count, for the periodic ctx poll
	cell        int
	first, last bool
	in          map[w2.Channel][]float64
	inPos       map[w2.Channel]int
	out         map[w2.Channel][]float64
	host        []float64
	mem         map[*w2.Symbol][]float64
	vars        map[*w2.Symbol]float64
	idx         []int64 // loop indices by ForStmt.ID
	loops       []*w2.ForStmt

	// trace, when non-nil, collects up to traceMax communication
	// events (see trace.go).
	trace    *[]TraceEvent
	traceMax int
}

func (c *cellState) stmts(list []w2.Stmt) error {
	for _, s := range list {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// ctxPollInterval is how many statements run between context polls —
// the interpreter's analogue of the simulator's every-4096-cycles
// check: cheap on the hot path, prompt enough for deadlines.
const ctxPollInterval = 4096

func (c *cellState) stmt(s w2.Stmt) error {
	if c.steps != nil {
		if *c.steps++; *c.steps%ctxPollInterval == 0 && c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				return fmt.Errorf("interpretation aborted: %w", err)
			}
		}
	}
	switch s := s.(type) {
	case *w2.AssignStmt:
		v, err := c.eval(s.RHS)
		if err != nil {
			return err
		}
		return c.assign(s.LHS, v)
	case *w2.IfStmt:
		cond, err := c.eval(s.Cond)
		if err != nil {
			return err
		}
		if cond != 0 {
			return c.stmts(s.Then)
		}
		return c.stmts(s.Else)
	case *w2.ForStmt:
		b := c.info.Bounds[s.ID]
		c.loops = append(c.loops, s)
		for i := b[0]; i <= b[1]; i++ {
			c.idx[s.ID] = i
			if err := c.stmts(s.Body); err != nil {
				return err
			}
		}
		c.loops = c.loops[:len(c.loops)-1]
		return nil
	case *w2.ReceiveStmt:
		var v float64
		if c.first {
			var err error
			v, err = c.evalExternalIn(s.External)
			if err != nil {
				return err
			}
		} else {
			pos := c.inPos[s.Chan]
			stream := c.in[s.Chan]
			if pos >= len(stream) {
				return fmt.Errorf("receive on %s blocks forever: upstream cell sent only %d words", s.Chan, len(stream))
			}
			v = stream[pos]
			c.inPos[s.Chan] = pos + 1
		}
		c.record(false, s.Chan, s.LHS.Name, v)
		return c.assign(s.LHS, v)
	case *w2.SendStmt:
		v, err := c.eval(s.Value)
		if err != nil {
			return err
		}
		c.record(true, s.Chan, sendLabel(s.Value), v)
		if c.last {
			if s.External != nil {
				idx, err := c.hostIndex(s.External)
				if err != nil {
					return err
				}
				c.host[idx] = v
			}
			// Sends without an external are dummies; still counted by
			// appending to the stream for conservation checking.
		}
		c.out[s.Chan] = append(c.out[s.Chan], v)
		return nil
	case *w2.CallStmt:
		return fmt.Errorf("nested call statements are not allowed")
	case *w2.BlockStmt:
		return c.stmts(s.Body)
	}
	return fmt.Errorf("unhandled statement")
}

func (c *cellState) evalExternalIn(e w2.Expr) (float64, error) {
	switch e := e.(type) {
	case nil:
		return 0, fmt.Errorf("receive without an external binding on the first cell")
	case *w2.FloatLit:
		return e.Value, nil
	case *w2.IntLit:
		return float64(e.Value), nil
	case *w2.VarRef:
		idx, err := c.hostIndex(e)
		if err != nil {
			return 0, err
		}
		return c.host[idx], nil
	}
	return 0, fmt.Errorf("invalid external expression")
}

func (c *cellState) hostIndex(e w2.Expr) (int, error) {
	ref, ok := e.(*w2.VarRef)
	if !ok {
		return 0, fmt.Errorf("external must be a host reference")
	}
	sym := c.info.Uses[ref.ID]
	if sym == nil || sym.Kind != w2.SymHost {
		return 0, fmt.Errorf("external %s has no resolved address", ref.Name)
	}
	return sym.Base + int(c.info.Address[ref.ID].Eval(c.idx)), nil
}

func (c *cellState) assign(ref *w2.VarRef, v float64) error {
	sym := c.info.Uses[ref.ID]
	switch sym.Kind {
	case w2.SymCellScalar:
		c.vars[sym] = v
		return nil
	case w2.SymCellArray:
		arr := c.array(sym)
		i := c.info.Address[ref.ID].Eval(c.idx)
		if i < 0 || int(i) >= len(arr) {
			return fmt.Errorf("store outside array %s", sym.Name)
		}
		arr[i] = v
		return nil
	}
	return fmt.Errorf("cannot assign to %s", ref.Name)
}

func (c *cellState) array(sym *w2.Symbol) []float64 {
	arr, ok := c.mem[sym]
	if !ok {
		arr = make([]float64, sym.Type.Size())
		c.mem[sym] = arr
	}
	return arr
}

func (c *cellState) eval(e w2.Expr) (float64, error) {
	switch e := e.(type) {
	case *w2.IntLit:
		return float64(e.Value), nil
	case *w2.FloatLit:
		return e.Value, nil
	case *w2.VarRef:
		sym := c.info.Uses[e.ID]
		switch sym.Kind {
		case w2.SymCellScalar:
			return c.vars[sym], nil
		case w2.SymCellArray:
			arr := c.array(sym)
			i := c.info.Address[e.ID].Eval(c.idx)
			if i < 0 || int(i) >= len(arr) {
				return 0, fmt.Errorf("load outside array %s", sym.Name)
			}
			return arr[i], nil
		}
		return 0, fmt.Errorf("cannot evaluate %s", e.Name)
	case *w2.UnExpr:
		v, err := c.eval(e.X)
		if err != nil {
			return 0, err
		}
		if e.Neg {
			return -v, nil
		}
		return boolF(v == 0), nil
	case *w2.BinExpr:
		l, err := c.eval(e.L)
		if err != nil {
			return 0, err
		}
		r, err := c.eval(e.R)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case w2.OpAdd:
			return l + r, nil
		case w2.OpSub:
			return l - r, nil
		case w2.OpMul:
			return l * r, nil
		case w2.OpDivide:
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		case w2.OpEq:
			return boolF(l == r), nil
		case w2.OpNe:
			return boolF(l != r), nil
		case w2.OpLt:
			return boolF(l < r), nil
		case w2.OpLe:
			return boolF(l <= r), nil
		case w2.OpGt:
			return boolF(l > r), nil
		case w2.OpGe:
			return boolF(l >= r), nil
		case w2.OpAnd:
			return boolF(l != 0 && r != 0), nil
		case w2.OpOr:
			return boolF(l != 0 || r != 0), nil
		}
	}
	return 0, fmt.Errorf("unhandled expression")
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sendLabel names the sent expression for traces: the variable name
// when the value is a simple reference, otherwise a generic marker.
func sendLabel(e w2.Expr) string {
	if ref, ok := e.(*w2.VarRef); ok && len(ref.Indices) == 0 {
		return ref.Name
	}
	return "(expr)"
}
