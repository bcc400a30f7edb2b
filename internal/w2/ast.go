package w2

// This file defines the abstract syntax tree for W2 programs.
//
// A W2 module declares host-side parameters (arrays bound to host
// variables), and a cell program that every cell of the array executes
// (the homogeneity requirement of §5.1).  The cell program contains
// parameterless functions and a statement list that calls them.

// Type is the type of a W2 value: int or float, scalar or array.
type Type struct {
	Base Base
	Dims []int // nil for scalars; up to two dimensions
}

// Base is a W2 base type.
type Base int

// Base types.
const (
	BaseInvalid Base = iota
	BaseInt
	BaseFloat
	BaseBool // internal only: result of comparisons
)

func (b Base) String() string {
	switch b {
	case BaseInt:
		return "int"
	case BaseFloat:
		return "float"
	case BaseBool:
		return "bool"
	}
	return "invalid"
}

// IsArray reports whether t has at least one dimension.
func (t Type) IsArray() bool { return len(t.Dims) > 0 }

// Size returns the number of scalar elements the type occupies.
func (t Type) Size() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

func (t Type) String() string {
	s := t.Base.String()
	for _, d := range t.Dims {
		s += "[" + itoa(d) + "]"
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Direction identifies the neighbour a send or receive addresses.
type Direction int

// Directions: L is the left neighbour (toward the host input side), R is
// the right neighbour (toward the host output side).
const (
	DirL Direction = iota
	DirR
)

func (d Direction) String() string {
	if d == DirL {
		return "L"
	}
	return "R"
}

// Channel identifies one of the two data paths between adjacent cells.
type Channel int

// Channels X and Y, as in Figure 2-1 of the paper.
const (
	ChanX Channel = iota
	ChanY
)

func (c Channel) String() string {
	if c == ChanX {
		return "X"
	}
	return "Y"
}

// Module is a complete W2 program.
type Module struct {
	Name   string
	Params []*Param   // host-bound parameters, in declaration order
	Decls  []*VarDecl // module-level variable declarations (host arrays)
	Cells  *CellProgram
	Pos    Pos

	// refs and loops count the VarRef and ForStmt IDs the parser handed
	// out: sema's side tables have one entry per ID.
	refs, loops int
}

// Param is a formal parameter of the module, bound to a host variable.
type Param struct {
	Name string
	Out  bool // true for "out" parameters (results), false for "in"
	Pos  Pos
}

// VarDecl declares one variable (module-level host array or function
// local).
type VarDecl struct {
	Name string
	Type Type
	Pos  Pos
}

// CellProgram is the program executed by each cell, cells First..Last.
type CellProgram struct {
	CellID string // name of the cell-identifier variable, e.g. "cid"
	First  int
	Last   int
	Funcs  []*FuncDecl
	Body   []Stmt // top level statements, typically call statements
	Pos    Pos
}

// FuncDecl is a parameterless cell function.
type FuncDecl struct {
	Name   string
	Locals []*VarDecl
	Body   []Stmt
	Pos    Pos
}

// Stmt is a W2 statement.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// AssignStmt is "lvalue := expr;".
type AssignStmt struct {
	LHS *VarRef
	RHS Expr
	Pos Pos
}

// IfStmt is "if cond then s1 [else s2]".  Both arms are compiled with
// predication so that cell timing stays data independent (a requirement
// of the skewed computation model, §5.1).
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// ForStmt is "for i := lo to hi do s".  Bounds must be compile-time
// constants (§6.2.1: "the compiler currently can only handle" constant
// bounds).
type ForStmt struct {
	Var  string
	Lo   Expr
	Hi   Expr
	Body []Stmt
	Pos  Pos
	// ID numbers the module's for statements densely from 0, in source
	// order; it indexes Info.Bounds and an Affine's Eval and Range
	// tables.
	ID int
}

// ReceiveStmt is "receive (dir, chan, lvalue [, external]);".
// External gives the host expression whose value the first cell
// receives; it is meaningful only on the array boundary.
type ReceiveStmt struct {
	Dir      Direction
	Chan     Channel
	LHS      *VarRef
	External Expr // may be nil
	Pos      Pos
}

// SendStmt is "send (dir, chan, expr [, external]);".
// External names the host location the last cell's value is stored to.
type SendStmt struct {
	Dir      Direction
	Chan     Channel
	Value    Expr
	External *VarRef // may be nil
	Pos      Pos
}

// CallStmt invokes a cell function by name.
type CallStmt struct {
	Name string
	Pos  Pos
}

// BlockStmt is "begin ... end".
type BlockStmt struct {
	Body []Stmt
	Pos  Pos
}

func (*AssignStmt) stmtNode()  {}
func (*IfStmt) stmtNode()      {}
func (*ForStmt) stmtNode()     {}
func (*ReceiveStmt) stmtNode() {}
func (*SendStmt) stmtNode()    {}
func (*CallStmt) stmtNode()    {}
func (*BlockStmt) stmtNode()   {}

func (s *AssignStmt) StmtPos() Pos  { return s.Pos }
func (s *IfStmt) StmtPos() Pos      { return s.Pos }
func (s *ForStmt) StmtPos() Pos     { return s.Pos }
func (s *ReceiveStmt) StmtPos() Pos { return s.Pos }
func (s *SendStmt) StmtPos() Pos    { return s.Pos }
func (s *CallStmt) StmtPos() Pos    { return s.Pos }
func (s *BlockStmt) StmtPos() Pos   { return s.Pos }

// Expr is a W2 expression.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
	Pos   Pos
}

// VarRef references a scalar variable or an array element.
type VarRef struct {
	Name    string
	Indices []Expr // nil for scalars
	Pos     Pos
	// ID numbers the module's variable references densely from 0, in
	// source order; it indexes Info.Uses and Info.Address.
	ID int
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDivide
	OpIntDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDivide: "/", OpIntDiv: "div",
	OpMod: "mod", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAnd: "and", OpOr: "or",
}

func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether op yields a boolean.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
}

// UnExpr is a unary operation: negation or logical not.
type UnExpr struct {
	Neg bool // true for "-", false for "not"
	X   Expr
	Pos Pos
}

func (*IntLit) exprNode()   {}
func (*FloatLit) exprNode() {}
func (*VarRef) exprNode()   {}
func (*BinExpr) exprNode()  {}
func (*UnExpr) exprNode()   {}

func (e *IntLit) ExprPos() Pos   { return e.Pos }
func (e *FloatLit) ExprPos() Pos { return e.Pos }
func (e *VarRef) ExprPos() Pos   { return e.Pos }
func (e *BinExpr) ExprPos() Pos  { return e.Pos }
func (e *UnExpr) ExprPos() Pos   { return e.Pos }
