package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// A rule is one row of the architecture table: a design the pipeline
// keeps "one of", checked over the types of the repository.  Every
// package, file, function and type it names is its scope, and a scope
// that no longer exists fails it: a rename has to update the row.
type rule struct {
	name     string
	check    func(r *report)
	fixtures []fixture // each must be flagged
}

// The packages the rules name.
const (
	mcodeDir = "internal/mcode"
	simDir   = "internal/sim"
	fastDir  = "internal/fastexec"
)

var rules = []rule{
	{
		// mcode.CellRegs and mcode.LaneRegs hold the writes in flight for
		// both executors; an executor naming mcode.FPUSlots keeps a FIFO
		// of its own.
		name: "one landing order",
		check: func(r *report) {
			banUses(r, []string{simDir, fastDir}, []types.Object{r.obj(mcodeDir, "FPUSlots")}, nil)
		},
		fixtures: []fixture{
			{name: "FIFO sized by mcode.FPUSlots", dir: fastDir, file: "fifo.go", src: `package fastexec
import "warp/internal/mcode"
var fifo [mcode.FPUSlots]float64
`},
			{name: "renamed import", dir: simDir, file: "fifo.go", src: `package sim
import mc "warp/internal/mcode"
const slots = mc.FPUSlots
`},
		},
	},
	{
		// mcode.Decode lowers every word once into the one op stream and
		// fastexec.Compile only partitions it: runCell or runLanes reading
		// an instruction word's fields again, or the retired word-level
		// landing calls, is the per-word decoding coming back.
		name: "every fast executor body runs the plan's ops",
		check: func(r *report) {
			opBodies(r, fastDir, []string{"(*Plan).runCell", "(*Plan).runLanes"}, nil)
		},
		fixtures: []fixture{
			{name: "presence bit under a signature broken across lines", dir: fastDir, fn: "(*Plan).runCell", breakRecv: true,
				src: `_ = p.words[0].HasAdd`},
			{name: "memory field read through a copy", dir: fastDir, fn: "(*Plan).runLanes",
				src: `var in mcode.Instr; ports := in.Mem; _ = ports`},
		},
	},
	{
		// The simulator walks the one op stream mcode.Decode emits, and the
		// busy-cycle accounting is a sum over the program when the run
		// ends: issue, issueLanes or stepCell reading an instruction word's
		// fields again, the retired landing calls, or counting issues
		// cycle by cycle is the per-cycle decoding coming back.
		name: "every simulator body runs the decoded ops",
		check: func(r *report) {
			opBodies(r, simDir, []string{"(*group).issue", "(*group).issueLanes", "(*group).stepCell"},
				[]string{"busy", "addOps", "mulOps", "movOps", "nLoads", "nStores"})
		},
		fixtures: []fixture{
			{name: "w.HasAdd planted in (*group).issue", dir: simDir, fn: "(*group).issue", src: `_ = w.HasAdd`},
			{name: "an issue counted by +=", dir: simDir, fn: "(*group).stepCell", src: `var n struct{ addOps int64 }; n.addOps += 1`},
			{name: "retired landing call", dir: simDir, fn: "(*group).issueLanes", src: `var o struct{ Retire func() }; o.Retire()`},
		},
	},
	{
		// The executors walk the ops mcode.Decode emits: an op kind or a
		// lowering of their own is a second copy of a word's semantics.
		name: "one lowering: no op kind or lowering of the executors' own",
		check: func(r *report) {
			for _, dir := range []string{simDir, fastDir} {
				p := r.pkg(dir)
				if p == nil {
					continue
				}
				p.inspect(func(_ site, n ast.Node) {
					switch n := n.(type) {
					case *ast.TypeSpec:
						if strings.HasPrefix(n.Name.Name, "opKind") {
							r.at(n.Pos(), "%s declares an op kind of its own", dir)
						}
					case *ast.FuncDecl:
						if n.Name.Name == "lower" {
							r.at(n.Pos(), "%s declares a lowering of its own", dir)
						}
					}
				})
			}
		},
		fixtures: []fixture{
			{name: "grouped op kind", dir: fastDir, file: "kind.go", src: `package fastexec
type (
	opKind uint8
)
`},
			{name: "generic lowering", dir: simDir, file: "lower.go", src: `package sim
func lower[T any](t T) T { return t }
`},
		},
	},
	{
		// A program is decoded once, by sim.Load (the cell program) and its
		// first run ((*Loaded).prepare: the IU program); the verifier
		// proves that load and both executors run it.  A decode anywhere
		// else in the executors, the driver or the verifier (whose own IU
		// tree is another reading) is a second decode of one program.
		name: "one lowering: one decode",
		check: func(r *report) {
			decode := []types.Object{r.obj(mcodeDir, "Decode"), r.obj(mcodeDir, "DecodeIU")}
			loaders := []string{"Load", "(*Loaded).prepare"}
			for _, fn := range loaders {
				if _, file := r.fn(simDir, fn); file != "" && file != "load.go" {
					r.errorf("scope: %s.%s moved from load.go to %s", simDir, fn, file)
				}
			}
			banUses(r, []string{simDir, fastDir, "internal/driver", "internal/verify"}, decode, func(s site) bool {
				return s.p.dir == simDir && s.file == "load.go" && slices.Contains(loaders, s.fn)
			})
		},
		fixtures: []fixture{
			{name: "mcode.Decode( planted in verify.go", dir: "internal/verify", fn: "Verify", src: `_, _ = mcode.Decode(nil)`},
			{name: "renamed import", dir: "internal/driver", file: "decode.go", src: `package driver
import mc "warp/internal/mcode"
var decodeIU = mc.DecodeIU
`},
		},
	},
	{
		// sim.Loaded counts a program once (Count); the fast executor reads
		// that count.
		name: "one lowering: one count",
		check: func(r *report) {
			banUses(r, []string{fastDir}, []types.Object{r.obj(mcodeDir, "CountCell"), r.obj(mcodeDir, "CountIU")}, nil)
		},
		fixtures: []fixture{
			{name: "a count of its own", dir: fastDir, file: "count.go", src: `package fastexec
import "warp/internal/mcode"
var _, _ = mcode.CountCell(nil)
`},
		},
	},
	{
		// The run record is sim.Stats and the decision audit lives in
		// internal/obs: a telemetry package is a second copy of it.
		name: "one run record: no telemetry package",
		check: func(r *report) {
			for _, dir := range r.w.dirs() {
				p := r.w.pkgs[dir]
				if p.types.Name() == "telemetry" || slices.Contains(p.leftOut, "telemetry") {
					r.errorf("%s is package telemetry", dir)
				}
			}
		},
		fixtures: []fixture{
			{name: "package telemetry", dir: "internal/telemetry", file: "telemetry.go", src: `package telemetry
type Run struct{ Cycles int64 }
`},
		},
	},
	{
		// Both executors return sim.Stats: a Result of the fast executor's
		// own is a second run record.
		name: "one run record: no fast executor Result",
		check: func(r *report) {
			p := r.pkg(fastDir)
			if p == nil {
				return
			}
			for id, obj := range p.info.Defs {
				if obj == nil || id.Name != "Result" {
					continue
				}
				t := types.Unalias(obj.Type())
				if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != p.types {
					continue // a name for a record declared elsewhere: sim.Stats
				}
				if _, ok := t.Underlying().(*types.Struct); ok {
					r.at(id.Pos(), "internal/fastexec declares a Result struct of its own")
				}
			}
		},
		fixtures: []fixture{
			{name: "a struct field of its own", dir: fastDir, file: "result.go", src: `package fastexec
type record struct {
	Result struct{ Cycles int64 }
}
`},
		},
	},
	{
		// sim.Closed builds the run record's program-determined part: a
		// cell profile written outside internal/sim and internal/obs is a
		// second copy of it.
		name: "one run record: cell profiles written by sim and obs",
		check: func(r *report) {
			profile := r.obj("internal/obs", "CellProfile")
			r.pkg(simDir)
			for _, dir := range r.w.dirs() {
				if dir == simDir || dir == "internal/obs" {
					continue
				}
				r.w.pkgs[dir].inspect(func(s site, n ast.Node) {
					if lit, ok := n.(*ast.CompositeLit); ok && profile != nil && holds(s.p.info.TypeOf(lit), profile.Type()) {
						r.at(lit.Pos(), "writes an obs.CellProfile literal")
					}
				})
			}
		},
		fixtures: []fixture{
			{name: "obs.CellProfile{ literal in fastexec", dir: fastDir, file: "profile.go", src: `package fastexec
import "warp/internal/obs"
var profile = obs.CellProfile{Busy: 1}
`},
			{name: "elided in a slice", dir: "internal/driver", file: "profile.go", src: `package driver
import "warp/internal/obs"
type cells = []obs.CellProfile
var profiles = cells{{Busy: 1}}
`},
		},
	},
	{
		// Every pass that reads a program's structure folds it with
		// mcode.Fold; a type switch over the nest's items outside
		// internal/mcode is a private walk coming back.  The walks that
		// replay iterations rather than fold the structure are allowed by
		// name: verify's hazard walk (two iterations a loop), iugen's
		// mirror (a copy per unrolled iteration) and its table replay
		// (every iteration of the spilled addresses).
		name: "one walk of the loop nest",
		check: func(r *report) {
			const iugen = "internal/iugen"
			replays := []string{"(*genState).mirrorItems", "(*genState).buildTable"}
			for _, fn := range replays {
				r.fn(iugen, fn)
			}
			r.file("internal/verify", "hazard.go")
			nest := []types.Object{r.obj(mcodeDir, "Block"), r.obj(mcodeDir, "Loop")}
			for _, dir := range r.w.dirs() {
				if dir == mcodeDir || strings.HasPrefix(dir, mcodeDir+"/") {
					continue
				}
				r.w.pkgs[dir].inspect(func(s site, n ast.Node) {
					if dir == "internal/verify" && s.file == "hazard.go" || dir == iugen && slices.Contains(replays, s.fn) {
						return
					}
					var cases []ast.Node
					switch n := n.(type) {
					case *ast.CaseClause:
						for _, e := range n.List {
							cases = append(cases, e)
						}
					case *ast.CommClause:
						if n.Comm != nil {
							cases = append(cases, n.Comm)
						}
					}
					for _, c := range cases {
						if e := typeIn(s.p.info, c, nest); e != nil {
							r.at(e.Pos(), "switches over the loop nest's items instead of folding it with mcode.Fold")
						}
					}
				})
			}
		},
		fixtures: []fixture{
			{name: "alias of mcode.Straight", dir: "internal/skew", file: "walk.go", src: `package skew
import "warp/internal/mcode"
type straight = mcode.Straight
func walk(items []mcode.CodeItem) (n int) {
	for _, it := range items {
		switch it := it.(type) {
		case *straight:
			n += len(it.Instrs)
		}
	}
	return n
}
`},
			{name: "IU loop outside the named replays", dir: "internal/iugen", file: "walk.go", src: `package iugen
import "warp/internal/mcode"
func (g *genState) loops(items []mcode.IUItem) (n int) {
	for _, it := range items {
		switch it.(type) {
		case
			*mcode.IULoop:
			n++
		}
	}
	return n
}
`},
		},
	},
	{
		// iugen runs on flat tables: no map keyed by a string, an IU
		// instruction or an address site.
		name: "the IU code generator keys by integers",
		check: func(r *report) {
			const iugen = "internal/iugen"
			instr, site := r.obj(mcodeDir, "IUInstr"), r.obj(iugen, "site")
			mapKeys(r, []scope{{dir: iugen}}, func(key types.Type) bool {
				b, ok := key.Underlying().(*types.Basic)
				return ok && b.Info()&types.IsString != 0 || isAny(key, []types.Object{instr, site})
			})
		},
		fixtures: []fixture{
			{name: "alias of string", dir: "internal/iugen", file: "keys.go", src: `package iugen
type name = string
var byName map[name]int
`},
			{name: "keyed by an IU instruction", dir: "internal/iugen", file: "keys.go", src: `package iugen
import "warp/internal/mcode"
func count(ins []*mcode.IUInstr) int {
	seen := make(map[*mcode.IUInstr]bool)
	for _, in := range ins {
		seen[in] = true
	}
	return len(seen)
}
`},
		},
	},
	{
		// opt.GlobalDeps builds a CSR graph over ir.Node.ID with one hub
		// per alias class, and commgraph reads its labels by id: a map
		// keyed by a node is the arc-per-pair graph coming back.
		name: "the dependence graph keys by node ids",
		check: func(r *report) {
			node := r.obj("internal/ir", "Node")
			mapKeys(r, []scope{{dir: "internal/commgraph"}, {dir: "internal/opt", file: "global.go"}},
				func(key types.Type) bool { return isAny(key, []types.Object{node}) })
		},
		fixtures: []fixture{
			{name: "planted in GlobalDeps", dir: "internal/opt", fn: "GlobalDeps", src: `preds := map[*ir.Node][]*ir.Node{}; _ = preds`},
			{name: "named map type", dir: "internal/commgraph", file: "keys.go", src: `package commgraph
import "warp/internal/ir"
type labels map[*ir.Node]int
var byNode labels
`},
		},
	},
	{
		// The parser numbers every VarRef and ForStmt, sema every Symbol,
		// and sema's side tables, the IR builder's per-block state and
		// opt's local passes are slices indexed by those numbers and by
		// ir.Node.ID: a map keyed by a node, an expression or a symbol is
		// the per-entry allocation coming back.
		name: "the front end keys by ids",
		check: func(r *report) {
			const w2 = "internal/w2"
			banned := []types.Object{r.obj(w2, "VarRef"), r.obj(w2, "ForStmt"), r.obj(w2, "Symbol"), r.obj(w2, "Expr"), r.obj("internal/ir", "Node")}
			mapKeys(r, []scope{{dir: w2}, {dir: "internal/ir", file: "build.go"}, {dir: "internal/opt", file: "local.go"}},
				func(key types.Type) bool { return isAny(key, banned) })
		},
		fixtures: []fixture{
			{name: "keyed by a symbol", dir: "internal/w2", file: "keys.go", src: `package w2
var bySym map[*Symbol]int
`},
			{name: "keyed by an expression in the IR builder", dir: "internal/ir", fn: "Build", src: `vals := map[w2.Expr]*Node{}; _ = vals`},
		},
	},
	{
		// Both cell schedulers' output is lowered into instruction fields
		// by one placement routine; a second function filling a field (a
		// presence bit and its value, a memory port, the queue fields) is
		// a second emitter.  The constant preamble's literal loads, built
		// whole in genFunc, are the one instruction written as a literal.
		name: "one cell-word emitter",
		check: func(r *report) {
			const cellgen = "internal/cellgen"
			const literals = "(*gen).genFunc"
			p := r.pkg(cellgen)
			r.fn(cellgen, literals)
			word := []types.Object{r.obj(mcodeDir, "Instr"), r.obj(mcodeDir, "Fields")}
			if p == nil {
				return
			}
			fills := map[string]token.Pos{}
			fill := func(s site, pos token.Pos) {
				if _, ok := fills[s.fn]; !ok {
					fills[s.fn] = pos
				}
			}
			p.inspect(func(s site, n ast.Node) {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if writesField(p.info, lhs, word) {
							fill(s, lhs.Pos())
						}
					}
				case *ast.IncDecStmt:
					if writesField(p.info, n.X, word) {
						fill(s, n.Pos())
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND && writesField(p.info, n.X, word) {
						fill(s, n.Pos())
					}
				case *ast.IndexExpr, *ast.SliceExpr: // in.Mem[port], read or written
					if sel := indexed(n); sel != nil && sel.Sel.Name == "Mem" && namedIn(sel.X) {
						fill(s, n.Pos())
					}
				case *ast.CompositeLit:
					if len(n.Elts) > 0 && s.fn != literals && isAny(p.info.TypeOf(n), word) {
						fill(s, n.Pos())
					}
				}
			})
			if len(fills) > 1 {
				var fns []string
				for fn := range fills {
					fns = append(fns, fn)
				}
				slices.Sort(fns)
				for _, fn := range fns {
					r.at(fills[fn], "%s fills instruction fields: one of %d emitters", fn, len(fills))
				}
			}
		},
		fixtures: []fixture{
			{name: "a second function under another name", dir: "internal/cellgen", file: "fill.go", src: `package cellgen
import "warp/internal/mcode"
func fillAdd(w *mcode.Instr, op mcode.AluOp) {
	w.HasAdd, w.Add = true, op
}
`},
			{name: "a port filled through a pointer", dir: "internal/cellgen", file: "fill.go", src: `package cellgen
import "warp/internal/mcode"
func storePort(w *mcode.Instr, r mcode.Reg) {
	m := &w.Mem[1]
	m.Kind, m.Reg = mcode.MemStore, r
}
`},
			{name: "a literal instruction", dir: "internal/cellgen", file: "fill.go", src: `package cellgen
import "warp/internal/mcode"
func movInstr(op mcode.AluOp) *mcode.Instr {
	return &mcode.Instr{Fields: mcode.Fields{HasMov: true, Mov: op}}
}
`},
		},
	},
	{
		// mcode.MemOp and mcode.IOOp are 80- and 104-byte values: ranging
		// over an instruction's Mem or IO by value copies each one.  Index
		// them (m := &in.Mem[i]).
		name: "instruction fields are walked in place",
		check: func(r *report) {
			ops := []types.Object{r.obj(mcodeDir, "MemOp"), r.obj(mcodeDir, "IOOp")}
			for _, dir := range r.w.dirs() {
				if dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
					continue
				}
				r.w.pkgs[dir].inspect(func(s site, n ast.Node) {
					rs, ok := n.(*ast.RangeStmt)
					if !ok || rs.Value == nil {
						return
					}
					sel, _ := rs.X.(*ast.SelectorExpr)
					if sel != nil && (sel.Sel.Name == "Mem" || sel.Sel.Name == "IO") {
						r.at(rs.Pos(), "ranges over .%s by value", sel.Sel.Name)
					} else if elem := elemOf(s.p.info.TypeOf(rs.X)); elem != nil && isAny(elem, ops) {
						r.at(rs.Pos(), "ranges over %s values", elem)
					}
				})
			}
		},
		fixtures: []fixture{
			{name: "range over in.Mem", dir: "internal/skew", file: "ports.go", src: `package skew
import "warp/internal/mcode"
func loads(in *mcode.Instr) (n int) {
	for _, m := range in.Mem {
		if m.Kind == mcode.MemLoad {
			n++
		}
	}
	return n
}
`},
			{name: "range over a copy", dir: "cmd/w2c", file: "ports.go", src: `package main
import "warp/internal/mcode"
func sends(in *mcode.Instr) (n int) {
	ios := in.IO
	for i, io := range ios {
		n += i + int(io.Chan)
	}
	return n
}
`},
		},
	},
	{
		// The daemon and the compiler command serve and compile the
		// programs clients send: nothing they run needs the generators of
		// benchmark and test programs, the reference interpreter those are
		// checked against, or the paper reproductions.
		name: "production import closure",
		check: func(r *report) {
			banned := []string{"internal/workloads", "internal/interp", "internal/paper"}
			for _, dir := range banned {
				r.pkg(dir)
			}
			for _, cmd := range []string{"cmd/warpd", "cmd/w2c"} {
				if r.pkg(cmd) == nil {
					continue
				}
				// via maps every module package in the closure to the
				// package that first imported it.
				via := map[string]string{cmd: ""}
				for queue := []string{cmd}; len(queue) > 0; queue = queue[1:] {
					for _, imp := range r.w.pkgs[queue[0]].imports {
						dir, _ := dirOf(imp)
						if _, seen := via[dir]; !seen {
							via[dir] = queue[0]
							queue = append(queue, dir)
						}
					}
				}
				for _, b := range banned {
					if from, ok := via[b]; ok {
						r.errorf("%s links %s (imported by %s)", cmd, b, from)
					}
				}
			}
		},
		fixtures: []fixture{
			{name: "warpd imports the workload generators", dir: "cmd/warpd", file: "gen.go", src: `package main
import _ "warp/internal/workloads"
`},
			{name: "w2c reaches the interpreter through a library", dir: "internal/prof", file: "oracle.go", src: `package prof
import _ "warp/internal/interp"
`},
		},
	},
	{
		// Both executors run a run's helpers through one fork-join,
		// sim.Fork, which owns their goroutines, their panics and the
		// first error, and one budget of processors, sim.Enter.
		name: "one fork-join",
		check: func(r *report) {
			wg, rec := r.std("sync", "WaitGroup"), types.Universe.Lookup("recover")
			procs := []types.Object{r.std("runtime", "GOMAXPROCS"), r.std("runtime", "NumCPU")}
			r.fn(simDir, "Fork")
			r.fn(simDir, "Enter")
			for _, dir := range []string{simDir, fastDir} {
				p := r.pkg(dir)
				if p == nil {
					continue
				}
				p.inspect(func(s site, n ast.Node) {
					fork := s.p.dir == simDir && s.fn == "Fork"
					switch n := n.(type) {
					case *ast.GoStmt:
						if !fork {
							r.at(n.Pos(), "starts a goroutine outside sim.Fork")
						}
					case *ast.Ident:
						switch obj := p.info.Uses[n]; {
						case obj == nil:
						case !fork && (obj == rec || obj == wg):
							r.at(n.Pos(), "uses %s outside sim.Fork", n.Name)
						case slices.Contains(procs, obj) && !(s.p.dir == simDir && s.fn == "Enter"):
							r.at(n.Pos(), "reads runtime.%s outside sim.Enter", n.Name)
						}
					}
				})
			}
		},
		fixtures: []fixture{
			{name: "a goroutine of its own in fastexec", dir: fastDir, file: "spawn.go", src: `package fastexec
func spawn(f func()) {
	go func() { f() }()
}
`},
			{name: "a WaitGroup of its own", dir: simDir, file: "join.go", src: `package sim
import "sync"
var joined sync.WaitGroup
`},
			{name: "processors counted again", dir: fastDir, file: "procs.go", src: `package fastexec
import "runtime"
var procs = runtime.NumCPU()
`},
		},
	},
	{
		// A test renamed under a CI step's -run list turns the step into
		// "no tests to run", which passes.  Every alternative of every
		// -run and every -fuzz pattern in the workflow must match a Test
		// or Fuzz function of the packages the step names (-run matches
		// unanchored, so one alternative may cover several tests).
		name: "CI's test lists name existing tests",
		check: func(r *report) {
			for i, line := range strings.Split(r.w.ci, "\n") {
				for _, cmd := range goTests(line) {
					for _, f := range cmd.flags {
						checkPattern(r, i+1, f, cmd.dirs)
					}
				}
			}
		},
		fixtures: []fixture{
			{name: "misspelled test name", dir: ".github/workflows", file: "ci.yml", src: `
      - name: Plan shapes
        run: go test -count=2 -run 'TestPlanSizeIndependentOfTrips|TestLoopShapesMatchSimulater' ./internal/fastexec/
`},
			{name: "misspelled fuzz target", dir: ".github/workflows", file: "ci.yml", src: `
      - name: Fuzz the parser
        run: go test -fuzz=FuzzParser -fuzztime=30s ./internal/w2
`},
		},
	},
}

// banUses flags every use of objs in the packages in dirs outside the
// sites allowed lets through (nil: none).
func banUses(r *report, dirs []string, objs []types.Object, allowed func(site) bool) {
	for _, dir := range dirs {
		p := r.pkg(dir)
		if p == nil {
			continue
		}
		p.inspect(func(s site, n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			if obj := p.info.Uses[id]; obj != nil && slices.Contains(objs, obj) && (allowed == nil || !allowed(s)) {
				r.at(id.Pos(), "uses %s.%s", obj.Pkg().Name(), obj.Name())
			}
		})
	}
}

// wordTypes are the instruction word the code generator writes: an
// executor body reads only the decoded ops and words.
var wordTypes = []string{"Instr", "Fields", "AluOp", "MemOp", "IOOp", "LitOp", "IUInstr"}

// wordNames are banned in an executor body whatever they select: the
// presence bits and the retired word-level landing calls.
var wordNames = []string{"HasAdd", "HasMul", "HasMov", "HasLit", "Issue", "Retire"}

// opBodies flags, in the named function bodies of dir, every read of an
// instruction word's fields and every issue counter (a field named in
// counters) bumped.
func opBodies(r *report, dir string, fns, counters []string) {
	p := r.pkg(dir)
	var words []types.Object
	for _, t := range wordTypes {
		words = append(words, r.obj(mcodeDir, t))
	}
	for _, fn := range fns {
		decl, _ := r.fn(dir, fn)
		if decl == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				name := n.Sel.Name
				if slices.Contains(wordNames, name) {
					r.at(n.Pos(), "%s selects .%s", fn, name)
				} else if x, ok := n.X.(*ast.SelectorExpr); ok && strings.HasPrefix(name, "Eval") && slices.Contains([]string{"Add", "Mul", "Mov"}, x.Sel.Name) {
					r.at(n.Pos(), "%s evaluates an FPU field (.%s.Eval)", fn, x.Sel.Name)
				} else if sel := p.info.Selections[n]; sel != nil && isAny(sel.Recv(), words) {
					r.at(n.Pos(), "%s selects .%s of mcode.%s", fn, name, named(sel.Recv()).Obj().Name())
				}
			case *ast.IndexExpr, *ast.SliceExpr:
				if sel := indexed(n); sel != nil && (sel.Sel.Name == "Mem" || sel.Sel.Name == "IO") {
					r.at(n.Pos(), "%s indexes .%s", fn, sel.Sel.Name)
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && slices.Contains(counters, sel.Sel.Name) {
					r.at(n.Pos(), "%s counts .%s cycle by cycle", fn, sel.Sel.Name)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					if sel, ok := n.Lhs[0].(*ast.SelectorExpr); ok && slices.Contains(counters, sel.Sel.Name) {
						r.at(n.Pos(), "%s counts .%s cycle by cycle", fn, sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

// A scope is a package, or one file of it.
type scope struct{ dir, file string }

// mapKeys flags every map in scope whose key type banned reports: every
// map type written there and every variable, field or type declared
// there whose type is a map, its key resolved through aliases.
func mapKeys(r *report, scopes []scope, banned func(key types.Type) bool) {
	for _, sc := range scopes {
		p := r.pkg(sc.dir)
		if p == nil {
			continue
		}
		if sc.file != "" && r.file(sc.dir, sc.file) == nil {
			continue
		}
		flag := func(pos token.Pos, t types.Type) {
			if t == nil {
				return
			}
			if m, ok := t.Underlying().(*types.Map); ok && banned(types.Unalias(m.Key())) {
				r.at(pos, "keys a map by %s", m.Key())
			}
		}
		p.inspect(func(s site, n ast.Node) {
			if sc.file != "" && s.file != sc.file {
				return
			}
			switch n := n.(type) {
			case *ast.MapType:
				flag(n.Pos(), p.info.TypeOf(n))
			case *ast.Ident:
				if obj := p.info.Defs[n]; obj != nil {
					flag(n.Pos(), obj.Type())
				}
			}
		})
	}
}

// isAny reports whether t is (through aliases and one pointer) a named
// type one of objs declares; a generic type's instances are its.
func isAny(t types.Type, objs []types.Object) bool {
	n := named(t)
	return n != nil && slices.Contains(objs, types.Object(n.Obj()))
}

// typeIn returns the first type expression under n that denotes a type
// one of objs declares, nil if there is none.
func typeIn(info *types.Info, n ast.Node, objs []types.Object) (found ast.Expr) {
	ast.Inspect(n, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && found == nil {
			if tv := info.Types[e]; tv.IsType() && isAny(tv.Type, objs) {
				found = e
			}
		}
		return found == nil
	})
	return found
}

// holds reports whether t is want, or a pointer to, a slice or array of,
// or a map to want: a composite literal of t writes want's fields.
func holds(t, want types.Type) bool {
	for t != nil {
		t = types.Unalias(t)
		if types.Identical(t, want) {
			return true
		}
		t = elemOf(t)
	}
	return false
}

// elemOf returns the element type of a pointer, slice, array or map type,
// nil for any other.
func elemOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return u.Elem()
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	}
	return nil
}

// writesField reports whether assigning to x (or taking its address)
// writes a field of an instruction: x is a path of selections, indexes
// and dereferences through a field of a word type (mcode.Instr,
// mcode.Fields), or
// through one of the presence bits, values, memory ports or queue fields
// of a variable named in.
func writesField(info *types.Info, x ast.Expr, word []types.Object) bool {
	for {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal && isAny(sel.Recv(), word) {
				return true
			}
			if namedIn(e.X) && inFields.MatchString(e.Sel.Name) {
				return true
			}
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return false
		}
	}
}

// inFields are the fields the cell-word emitter fills, by name.
var inFields = regexp.MustCompile(`^(Has)?(Add|Mul|Mov|Lit)$|^Mem$|^IO$`)

// namedIn reports whether x names the instruction as the emitter does:
// in, or any name ending in it.
func namedIn(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return strings.HasSuffix(x.Name, "in")
	case *ast.SelectorExpr:
		return strings.HasSuffix(x.Sel.Name, "in")
	}
	return false
}

// indexed returns the selector an index or slice expression applies to,
// nil if it applies to anything else.
func indexed(n ast.Node) *ast.SelectorExpr {
	var x ast.Expr
	switch n := n.(type) {
	case *ast.IndexExpr:
		x = n.X
	case *ast.SliceExpr:
		x = n.X
	}
	sel, _ := x.(*ast.SelectorExpr)
	return sel
}

// A goTest is one `go test` command of the workflow: its -run and -fuzz
// patterns and the package directories it names.
type goTest struct {
	flags []string // "-run=…", "-fuzz=…"
	dirs  []string
}

// goTests returns the go test commands of one workflow line.
func goTests(line string) []goTest {
	var cmds []goTest
	words := shellWords(line)
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		var cmd goTest
		for i += 2; i < len(words) && !slices.Contains([]string{"&&", "||", ";", "|"}, words[i]); i++ {
			w := words[i]
			if !strings.HasPrefix(w, "-") {
				cmd.dirs = append(cmd.dirs, w)
				continue
			}
			name, val, ok := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !ok && slices.Contains([]string{"run", "fuzz", "count", "cpu", "fuzztime", "bench", "benchtime", "timeout", "tags", "skip"}, name) && i+1 < len(words) {
				i++
				val = words[i]
			}
			if name == "run" || name == "fuzz" {
				cmd.flags = append(cmd.flags, "-"+name+"="+val)
			}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// shellWords splits a line into words as the shell does for the quoting
// the workflow uses: single and double quotes, no escapes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				words = append(words, cur.String())
				cur.Reset()
				in = false
			}
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}

// checkPattern flags each alternative of one -run or -fuzz pattern that
// matches no Test or Fuzz function of the packages in dirs, and a -fuzz
// pattern that does not match exactly one fuzz target.
func checkPattern(r *report, line int, flag string, dirs []string) {
	name, pattern, _ := strings.Cut(flag, "=")
	var tests []string
	for _, d := range dirs {
		for _, dir := range r.w.testDirs(d) {
			names, err := r.w.l.testNames(dir)
			if err != nil {
				r.errorf("%s:%d: %s: %v", ciFile, line, d, err)
			}
			tests = append(tests, names...)
		}
	}
	if name == "-fuzz" {
		var n int
		re, err := regexp.Compile(pattern)
		if err == nil {
			for _, t := range tests {
				if strings.HasPrefix(t, "Fuzz") && re.MatchString(t) {
					n++
				}
			}
		}
		if n != 1 {
			r.errorf("%s:%d: -fuzz=%s matches %d fuzz targets in %s, not one", ciFile, line, pattern, n, strings.Join(dirs, " "))
		}
		return
	}
	// -run splits on / into the patterns of each subtest level; the
	// top level names the functions.
	top, _, _ := strings.Cut(pattern, "/")
	for _, alt := range alternatives(top) {
		re, err := regexp.Compile(alt)
		if err != nil {
			r.errorf("%s:%d: -run alternative %q: %v", ciFile, line, alt, err)
			continue
		}
		if !slices.ContainsFunc(tests, re.MatchString) {
			r.errorf("%s:%d: -run alternative %q matches no test in %s", ciFile, line, alt, strings.Join(dirs, " "))
		}
	}
}

// alternatives splits a regular expression at its top-level |.
func alternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}

// testDirs resolves one package argument of go test, run from the root,
// to the directories whose tests it runs.
func (w *world) testDirs(arg string) []string {
	arg = strings.TrimPrefix(strings.TrimSuffix(arg, "/"), "./")
	if arg == "" {
		arg = "."
	}
	prefix, all := strings.CutSuffix(arg, "/...")
	if !all && arg != "..." {
		return []string{arg}
	}
	var dirs []string
	for _, d := range w.dirs() {
		if arg == "..." || d == prefix || strings.HasPrefix(d, prefix+"/") {
			dirs = append(dirs, d)
		}
	}
	return dirs
}
