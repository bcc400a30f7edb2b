package w2

import (
	"fmt"
)

// This file implements semantic analysis: name resolution, type
// checking, evaluation of loop bounds, and enforcement of the W2
// restrictions required by the skewed computation model (§5.1):
//
//   - loop bounds must be compile-time constants, so the compiler can
//     bound when every datum is received and sent;
//   - array subscripts must be affine in loop indices (data independent),
//     because all addresses are generated on the interface unit and must
//     be common to all cells;
//   - the cells have no integer arithmetic, so integer variables may only
//     be loop counters and may only appear in subscripts and bounds.

// SymKind classifies a resolved name.
type SymKind int

// Symbol kinds.
const (
	SymHost       SymKind = iota // module parameter backed by host memory
	SymCellScalar                // function-local float scalar (a cell register)
	SymCellArray                 // function-local array (cell data memory)
	SymLoopVar                   // integer loop counter
	SymCellID                    // the cellprogram index variable
)

func (k SymKind) String() string {
	switch k {
	case SymHost:
		return "host variable"
	case SymCellScalar:
		return "cell scalar"
	case SymCellArray:
		return "cell array"
	case SymLoopVar:
		return "loop variable"
	case SymCellID:
		return "cell identifier"
	}
	return "symbol"
}

// Symbol is a resolved variable.
type Symbol struct {
	// ID numbers the module's declared symbols densely from 0: host
	// parameters in declaration order, then each function's locals.
	ID   int
	Name string
	Kind SymKind
	Type Type
	Out  bool // for SymHost: an "out" parameter
	Base int  // memory base offset (cell memory or host memory)
	Func *FuncDecl
}

// Info is the result of semantic analysis: dense side tables indexed
// by the IDs the parser gave the syntax nodes, plus memory layout for
// the cell and the host.
type Info struct {
	Module *Module
	Funcs  map[string]*FuncDecl

	// Uses holds every VarRef's symbol, indexed by VarRef.ID.
	Uses []*Symbol
	// Bounds holds every for statement's constant [lo, hi], indexed by
	// ForStmt.ID.
	Bounds [][2]int64
	// Address holds, for every array-element VarRef, the affine form of
	// its flattened (row-major) element index excluding the array base,
	// indexed by VarRef.ID (the zero Affine for a scalar).
	Address []Affine
	// NumSyms bounds Symbol.ID: every declared symbol's ID is below it.
	NumSyms int

	// HostSyms lists host parameters in declaration order.
	HostSyms []*Symbol
	// HostSize is the total host words needed by all parameters.
	HostSize int
	// CellMemSize is the number of cell data-memory words used per
	// function (max across functions).
	CellMemSize int
}

// HostMem lays out the host memory image, HostSize words with each
// input parameter array at its Base.
func (info *Info) HostMem(inputs map[string][]float64) ([]float64, error) {
	host := make([]float64, info.HostSize)
	for _, sym := range info.HostSyms {
		if sym.Out {
			continue
		}
		data, ok := inputs[sym.Name]
		if !ok {
			return nil, fmt.Errorf("missing input array %q", sym.Name)
		}
		if n := sym.Type.Size(); len(data) != n {
			return nil, fmt.Errorf("input %q has %d elements, declared %s needs %d", sym.Name, len(data), sym.Type, n)
		}
		copy(host[sym.Base:], data)
	}
	return host, nil
}

// Outputs copies the out-parameter arrays from a host memory image.
func (info *Info) Outputs(host []float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, sym := range info.HostSyms {
		if !sym.Out {
			continue
		}
		data := make([]float64, sym.Type.Size())
		copy(data, host[sym.Base:sym.Base+sym.Type.Size()])
		out[sym.Name] = data
	}
	return out
}

// SemaError is a semantic error with its source position.
type SemaError struct {
	Pos Pos
	Msg string
}

func (e *SemaError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errAt(pos Pos, format string, args ...any) error {
	return &SemaError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type checker struct {
	info  *Info
	host  map[string]*Symbol
	fn    *FuncDecl
	local map[string]*Symbol
	loops []*ForStmt    // active loop nest, outermost first
	syms  []Symbol      // the backing array of every declared symbol
	terms slab[AffTerm] // every affine form's terms
}

// symbol returns a new declared symbol with the next ID.
func (c *checker) symbol(s Symbol) *Symbol {
	s.ID = len(c.syms)
	c.syms = append(c.syms, s)
	return &c.syms[s.ID]
}

// Analyze performs semantic analysis of a module returned by Parse.
func Analyze(m *Module) (*Info, error) {
	info := &Info{
		Module:  m,
		Funcs:   make(map[string]*FuncDecl),
		Uses:    make([]*Symbol, m.refs),
		Bounds:  make([][2]int64, m.loops),
		Address: make([]Affine, m.refs),
	}
	c := &checker{info: info, host: make(map[string]*Symbol)}

	if m.Cells == nil {
		return nil, errAt(m.Pos, "module %s has no cellprogram", m.Name)
	}
	if m.Cells.First != 0 {
		return nil, errAt(m.Cells.Pos, "cellprogram must start at cell 0, got %d", m.Cells.First)
	}
	if m.Cells.Last < m.Cells.First {
		return nil, errAt(m.Cells.Pos, "cellprogram range %d:%d is empty", m.Cells.First, m.Cells.Last)
	}

	// One backing array holds every symbol, so the addresses stay put.
	nsyms := len(m.Params)
	for _, f := range m.Cells.Funcs {
		nsyms += len(f.Locals)
	}
	c.syms = make([]Symbol, 0, nsyms)

	// Host parameters: each must have a module-level declaration.
	declByName := make(map[string]*VarDecl)
	for _, d := range m.Decls {
		if _, dup := declByName[d.Name]; dup {
			return nil, errAt(d.Pos, "duplicate declaration of %s", d.Name)
		}
		declByName[d.Name] = d
	}
	base := 0
	for _, p := range m.Params {
		d, ok := declByName[p.Name]
		if !ok {
			return nil, errAt(p.Pos, "parameter %s has no declaration", p.Name)
		}
		if d.Type.Base != BaseFloat {
			return nil, errAt(d.Pos, "host parameter %s must be float (channels carry 32-bit floating words)", p.Name)
		}
		sym := c.symbol(Symbol{Name: p.Name, Kind: SymHost, Type: d.Type, Out: p.Out, Base: base})
		base += d.Type.Size()
		c.host[p.Name] = sym
		info.HostSyms = append(info.HostSyms, sym)
	}
	info.HostSize = base
	for _, d := range m.Decls {
		if _, ok := c.host[d.Name]; !ok {
			return nil, errAt(d.Pos, "module variable %s is not a parameter; only parameter arrays may be declared at module level", d.Name)
		}
	}

	// Functions.
	for _, f := range m.Cells.Funcs {
		if _, dup := info.Funcs[f.Name]; dup {
			return nil, errAt(f.Pos, "duplicate function %s", f.Name)
		}
		info.Funcs[f.Name] = f
	}
	for _, f := range m.Cells.Funcs {
		if err := c.checkFunc(f); err != nil {
			return nil, err
		}
	}

	// Top-level body: call statements only (the paper's programs call a
	// single cell function; we allow several, executed in order).
	for _, s := range m.Cells.Body {
		call, ok := s.(*CallStmt)
		if !ok {
			return nil, errAt(s.StmtPos(), "only call statements are allowed at cellprogram top level")
		}
		if _, ok := info.Funcs[call.Name]; !ok {
			return nil, errAt(call.Pos, "call of undefined function %s", call.Name)
		}
	}
	if len(m.Cells.Body) == 0 {
		return nil, errAt(m.Cells.Pos, "cellprogram has no call statement")
	}
	info.NumSyms = len(c.syms)
	return info, nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.local = make(map[string]*Symbol)
	c.loops = nil
	memBase := 0
	for _, d := range f.Locals {
		if _, dup := c.local[d.Name]; dup {
			return errAt(d.Pos, "duplicate local %s in function %s", d.Name, f.Name)
		}
		if _, shadow := c.host[d.Name]; shadow {
			return errAt(d.Pos, "local %s shadows a host parameter", d.Name)
		}
		var sym *Symbol
		switch {
		case d.Type.IsArray():
			if d.Type.Base != BaseFloat {
				return errAt(d.Pos, "cell arrays must be float: %s", d.Name)
			}
			sym = c.symbol(Symbol{Name: d.Name, Kind: SymCellArray, Type: d.Type, Base: memBase, Func: f})
			memBase += d.Type.Size()
		case d.Type.Base == BaseInt:
			sym = c.symbol(Symbol{Name: d.Name, Kind: SymLoopVar, Type: d.Type, Func: f})
		default:
			sym = c.symbol(Symbol{Name: d.Name, Kind: SymCellScalar, Type: d.Type, Func: f})
		}
		c.local[d.Name] = sym
	}
	if memBase > 4096 {
		return errAt(f.Pos, "function %s needs %d words of cell memory; the Warp cell has 4K", f.Name, memBase)
	}
	if memBase > c.info.CellMemSize {
		c.info.CellMemSize = memBase
	}
	return c.checkStmts(f.Body)
}

func (c *checker) lookup(name string, pos Pos) (*Symbol, error) {
	if s, ok := c.local[name]; ok {
		return s, nil
	}
	if s, ok := c.host[name]; ok {
		return s, nil
	}
	if name == c.info.Module.Cells.CellID {
		// Every use of the cell identifier is an error, so its symbol
		// never reaches the side tables of an accepted module.
		return &Symbol{ID: -1, Name: name, Kind: SymCellID, Type: Type{Base: BaseInt}}, nil
	}
	return nil, errAt(pos, "undefined variable %s", name)
}

func (c *checker) checkStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *AssignStmt:
		sym, err := c.checkCellLValue(s.LHS)
		if err != nil {
			return err
		}
		if sym.Kind == SymLoopVar {
			return errAt(s.Pos, "cannot assign to loop variable %s: Warp cells have no integer arithmetic", sym.Name)
		}
		bt, err := c.checkExpr(s.RHS)
		if err != nil {
			return err
		}
		if bt != BaseFloat {
			return errAt(s.Pos, "assignment to %s requires a float expression, got %s", sym.Name, bt)
		}
		return nil

	case *IfStmt:
		bt, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if bt != BaseBool {
			return errAt(s.Pos, "if condition must be a comparison, got %s", bt)
		}
		if err := c.checkNoIOIn(s.Then, s.Pos); err != nil {
			return err
		}
		if err := c.checkNoIOIn(s.Else, s.Pos); err != nil {
			return err
		}
		if err := c.checkStmts(s.Then); err != nil {
			return err
		}
		return c.checkStmts(s.Else)

	case *ForStmt:
		sym, ok := c.local[s.Var]
		if !ok || sym.Kind != SymLoopVar {
			return errAt(s.Pos, "for variable %s must be a declared int local", s.Var)
		}
		for _, l := range c.loops {
			if l.Var == s.Var {
				return errAt(s.Pos, "loop variable %s reused in nested loop", s.Var)
			}
		}
		lo, err := c.constInt(s.Lo)
		if err != nil {
			return err
		}
		hi, err := c.constInt(s.Hi)
		if err != nil {
			return err
		}
		if hi < lo {
			return errAt(s.Pos, "loop %s runs from %d to %d: empty loops are not supported", s.Var, lo, hi)
		}
		c.info.Bounds[s.ID] = [2]int64{lo, hi}
		c.loops = append(c.loops, s)
		err = c.checkStmts(s.Body)
		c.loops = c.loops[:len(c.loops)-1]
		return err

	case *ReceiveStmt:
		sym, err := c.checkCellLValue(s.LHS)
		if err != nil {
			return err
		}
		if sym.Kind == SymLoopVar {
			return errAt(s.Pos, "cannot receive into loop variable %s", sym.Name)
		}
		if s.External != nil {
			if err := c.checkExternal(s.External, false); err != nil {
				return err
			}
		}
		return nil

	case *SendStmt:
		bt, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if bt != BaseFloat {
			return errAt(s.Pos, "sent value must be float, got %s", bt)
		}
		if s.External != nil {
			if err := c.checkExternal(s.External, true); err != nil {
				return err
			}
		}
		return nil

	case *CallStmt:
		return errAt(s.Pos, "call statements are only allowed at cellprogram top level")

	case *BlockStmt:
		return c.checkStmts(s.Body)
	}
	return errAt(s.StmtPos(), "unhandled statement")
}

// checkNoIOIn rejects send/receive under a conditional: I/O under a
// data-dependent predicate would make I/O timing data dependent, which
// the skewed computation model cannot support (§5.1).
func (c *checker) checkNoIOIn(stmts []Stmt, ifPos Pos) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ReceiveStmt, *SendStmt:
			return errAt(s.StmtPos(), "send/receive may not appear under an if: I/O timing must be data independent")
		case *IfStmt:
			if err := c.checkNoIOIn(s.Then, ifPos); err != nil {
				return err
			}
			if err := c.checkNoIOIn(s.Else, ifPos); err != nil {
				return err
			}
		case *ForStmt:
			if err := c.checkNoIOIn(s.Body, ifPos); err != nil {
				return err
			}
		case *BlockStmt:
			if err := c.checkNoIOIn(s.Body, ifPos); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCellLValue resolves an assignable cell-side reference: a float
// scalar or a cell array element with an affine subscript.
func (c *checker) checkCellLValue(ref *VarRef) (*Symbol, error) {
	sym, err := c.lookup(ref.Name, ref.Pos)
	if err != nil {
		return nil, err
	}
	c.info.Uses[ref.ID] = sym
	switch sym.Kind {
	case SymHost:
		return nil, errAt(ref.Pos, "%s is a host variable; cells access host data only through send/receive externals", ref.Name)
	case SymCellID:
		return nil, errAt(ref.Pos, "cannot assign to the cell identifier")
	case SymCellScalar, SymLoopVar:
		if len(ref.Indices) != 0 {
			return nil, errAt(ref.Pos, "%s is a scalar", ref.Name)
		}
		return sym, nil
	case SymCellArray:
		if err := c.checkSubscripts(ref, sym); err != nil {
			return nil, err
		}
		return sym, nil
	}
	return nil, errAt(ref.Pos, "cannot assign to %s", ref.Name)
}

// checkSubscripts validates an array element reference and records its
// flattened affine address.
func (c *checker) checkSubscripts(ref *VarRef, sym *Symbol) error {
	if len(ref.Indices) != len(sym.Type.Dims) {
		return errAt(ref.Pos, "%s has %d dimension(s), %d subscript(s) given",
			ref.Name, len(sym.Type.Dims), len(ref.Indices))
	}
	addr, err := c.address(ref.Name, ref.Indices, sym.Type.Dims)
	if err != nil {
		return err
	}
	c.info.Address[ref.ID] = addr
	return nil
}

// address checks the subscripts of an element of array name, each
// within its dimension over the loop bounds in scope, and returns the
// element's flattened affine address.
func (c *checker) address(name string, indices []Expr, dims []int) (Affine, error) {
	addr := AffConst(0)
	for k, idx := range indices {
		aff, err := c.affine(idx)
		if err != nil {
			return Affine{}, err
		}
		min, max, ok := aff.Range(c.info.Bounds)
		if !ok {
			return Affine{}, errAt(idx.ExprPos(), "subscript %s of %s: its range overflows 64 bits", aff, name)
		}
		if min < 0 || max >= int64(dims[k]) {
			return Affine{}, errAt(idx.ExprPos(), "subscript %s of %s ranges over [%d,%d], outside [0,%d]",
				aff, name, min, max, dims[k]-1)
		}
		addr = addr.add(aff, &c.terms)
		if k < len(dims)-1 {
			addr = addr.scale(int64(dims[k+1]), &c.terms)
		}
	}
	return addr, nil
}

// affine reduces an integer-typed expression to affine form, or fails:
// the expression would require cell-side integer arithmetic.
func (c *checker) affine(e Expr) (Affine, error) {
	switch e := e.(type) {
	case *IntLit:
		return AffConst(e.Value), nil
	case *VarRef:
		sym, err := c.lookup(e.Name, e.Pos)
		if err != nil {
			return Affine{}, err
		}
		c.info.Uses[e.ID] = sym
		switch sym.Kind {
		case SymLoopVar:
			if len(e.Indices) != 0 {
				return Affine{}, errAt(e.Pos, "%s is a scalar", e.Name)
			}
			loop := c.activeLoop(e.Name)
			if loop == nil {
				return Affine{}, errAt(e.Pos, "loop variable %s used outside its loop", e.Name)
			}
			return affVar(loop, &c.terms), nil
		case SymCellID:
			return Affine{}, errAt(e.Pos, "the cell identifier may not appear in subscripts: addresses are generated once on the IU and must be common to all cells")
		}
		return Affine{}, errAt(e.Pos, "subscript must be affine in loop indices; %s is a %s", e.Name, sym.Kind)
	case *UnExpr:
		if !e.Neg {
			return Affine{}, errAt(e.Pos, "'not' is not an integer operation")
		}
		a, err := c.affine(e.X)
		if err != nil {
			return Affine{}, err
		}
		return a.scale(-1, &c.terms), nil
	case *BinExpr:
		switch e.Op {
		case OpAdd, OpSub:
			l, err := c.affine(e.L)
			if err != nil {
				return Affine{}, err
			}
			r, err := c.affine(e.R)
			if err != nil {
				return Affine{}, err
			}
			if e.Op == OpAdd {
				return l.add(r, &c.terms), nil
			}
			return l.sub(r, &c.terms), nil
		case OpMul:
			l, err := c.affine(e.L)
			if err != nil {
				return Affine{}, err
			}
			r, err := c.affine(e.R)
			if err != nil {
				return Affine{}, err
			}
			if l.IsConst() {
				return r.scale(l.Const, &c.terms), nil
			}
			if r.IsConst() {
				return l.scale(r.Const, &c.terms), nil
			}
			return Affine{}, errAt(e.Pos, "subscript is quadratic in loop indices; addresses must be affine")
		}
		return Affine{}, errAt(e.Pos, "operator %s is not allowed in subscripts", e.Op)
	}
	return Affine{}, errAt(e.ExprPos(), "subscript must be an integer expression affine in loop indices")
}

func (c *checker) activeLoop(name string) *ForStmt {
	for i := len(c.loops) - 1; i >= 0; i-- {
		if c.loops[i].Var == name {
			return c.loops[i]
		}
	}
	return nil
}

// constInt evaluates a compile-time constant integer expression
// (required for loop bounds, §6.2.1).
func (c *checker) constInt(e Expr) (int64, error) {
	a, err := c.affine(e)
	if err != nil {
		return 0, err
	}
	if !a.IsConst() {
		return 0, errAt(e.ExprPos(), "loop bounds must be compile-time constants (the array has no dynamic flow control)")
	}
	return a.Const, nil
}

// checkExpr types a value expression used in cell computation.
func (c *checker) checkExpr(e Expr) (Base, error) {
	switch e := e.(type) {
	case *IntLit:
		// Integer literals in float context are promoted.
		return BaseFloat, nil
	case *FloatLit:
		return BaseFloat, nil
	case *VarRef:
		sym, err := c.lookup(e.Name, e.Pos)
		if err != nil {
			return BaseInvalid, err
		}
		c.info.Uses[e.ID] = sym
		switch sym.Kind {
		case SymHost:
			return BaseInvalid, errAt(e.Pos, "%s is a host variable; cells access host data only through receive externals", e.Name)
		case SymCellScalar:
			if len(e.Indices) != 0 {
				return BaseInvalid, errAt(e.Pos, "%s is a scalar", e.Name)
			}
			return BaseFloat, nil
		case SymCellArray:
			if err := c.checkSubscripts(e, sym); err != nil {
				return BaseInvalid, err
			}
			return BaseFloat, nil
		case SymLoopVar, SymCellID:
			return BaseInvalid, errAt(e.Pos, "%s is an integer and cannot appear in cell computation: Warp cells have no integer arithmetic (use it only in subscripts)", e.Name)
		}
		return BaseInvalid, errAt(e.Pos, "cannot use %s here", e.Name)
	case *UnExpr:
		bt, err := c.checkExpr(e.X)
		if err != nil {
			return BaseInvalid, err
		}
		if e.Neg {
			if bt != BaseFloat {
				return BaseInvalid, errAt(e.Pos, "unary minus requires a float operand")
			}
			return BaseFloat, nil
		}
		if bt != BaseBool {
			return BaseInvalid, errAt(e.Pos, "'not' requires a boolean operand")
		}
		return BaseBool, nil
	case *BinExpr:
		switch {
		case e.Op.IsComparison():
			lt, err := c.checkExpr(e.L)
			if err != nil {
				return BaseInvalid, err
			}
			rt, err := c.checkExpr(e.R)
			if err != nil {
				return BaseInvalid, err
			}
			if lt != BaseFloat || rt != BaseFloat {
				return BaseInvalid, errAt(e.Pos, "comparisons require float operands")
			}
			return BaseBool, nil
		case e.Op == OpAnd || e.Op == OpOr:
			lt, err := c.checkExpr(e.L)
			if err != nil {
				return BaseInvalid, err
			}
			rt, err := c.checkExpr(e.R)
			if err != nil {
				return BaseInvalid, err
			}
			if lt != BaseBool || rt != BaseBool {
				return BaseInvalid, errAt(e.Pos, "%s requires boolean operands", e.Op)
			}
			return BaseBool, nil
		case e.Op == OpIntDiv || e.Op == OpMod:
			return BaseInvalid, errAt(e.Pos, "div/mod are not available in cell computation")
		default:
			lt, err := c.checkExpr(e.L)
			if err != nil {
				return BaseInvalid, err
			}
			rt, err := c.checkExpr(e.R)
			if err != nil {
				return BaseInvalid, err
			}
			if lt != BaseFloat || rt != BaseFloat {
				return BaseInvalid, errAt(e.Pos, "operator %s requires float operands", e.Op)
			}
			return BaseFloat, nil
		}
	}
	return BaseInvalid, errAt(e.ExprPos(), "invalid expression")
}

// checkExternal validates the external (host-side) operand of a
// send/receive.  For receives it may be a host array element (affine
// subscripts) or a float literal; for sends it must be a host array
// element of an out parameter.
func (c *checker) checkExternal(e Expr, isSend bool) error {
	switch e := e.(type) {
	case *FloatLit:
		if isSend {
			return errAt(e.Pos, "send external must name a host location")
		}
		return nil
	case *IntLit:
		if isSend {
			return errAt(e.Pos, "send external must name a host location")
		}
		return nil
	case *VarRef:
		sym, err := c.lookup(e.Name, e.Pos)
		if err != nil {
			return err
		}
		c.info.Uses[e.ID] = sym
		if sym.Kind != SymHost {
			return errAt(e.Pos, "external operand %s must be a host variable", e.Name)
		}
		if isSend && !sym.Out {
			return errAt(e.Pos, "send external %s must be an out parameter", e.Name)
		}
		if !isSend && sym.Out {
			return errAt(e.Pos, "receive external %s must be an in parameter", e.Name)
		}
		if len(e.Indices) != len(sym.Type.Dims) {
			return errAt(e.Pos, "%s has %d dimension(s), %d subscript(s) given",
				e.Name, len(sym.Type.Dims), len(e.Indices))
		}
		addr, err := c.address(e.Name, e.Indices, sym.Type.Dims)
		if err != nil {
			return err
		}
		c.info.Address[e.ID] = addr
		return nil
	}
	return errAt(e.ExprPos(), "invalid external operand")
}
