// Package hostgen generates the host I/O processor programs (§2.2,
// §6.1): the exact sequence of words the host must feed into the first
// cell's queues, and the host memory locations that successive words
// arriving from the last cell are stored to.
//
// "The I/O processors in the Warp host must be programmed to supply
// input in the exact sequence as the data is used in the Warp cells" —
// the sequence is that of the scheduled cell program's I/O operations in
// execution order, each receive resolved to its external binding.
//
// The sequences are not written out.  A host program keeps, per channel
// and direction, the loop nest that generates the stream: every I/O
// operation's host address resolved once to an affine function of the
// enclosing loops' iteration numbers, with the loops it closes.  Its size
// and the cost of generating it depend on the microcode, not on trip
// counts (a 512×512 image streams millions of words out of a few dozen
// operations); consumers read the words through a Reader, a block at a
// time.
package hostgen

import (
	"fmt"
	"math"
	"strings"

	"warp/internal/mcode"
	"warp/internal/w2"
)

// Word is one word of a host stream.  On an input stream it is what the
// host sends: a literal, or the content of a host memory location.  On
// an output stream it is where the host stores the arriving word: Index,
// or nowhere when Index is Discard.
type Word struct {
	Value   float64 // literal value
	Index   int32   // host memory index (when !Literal)
	Literal bool
}

// Discard marks an output word with no host destination (a dummy send
// inserted to conserve the stream, as in the paper's Figure 4-1).
const Discard = -1

// In resolves the input word w against one problem's host memory: what
// the host sends from mem.
func (w *Word) In(mem []float64) (float64, error) {
	switch {
	case w.Literal:
		return w.Value, nil
	case w.Index < 0 || int(w.Index) >= len(mem):
		return 0, &indexError{"input", w.Index, len(mem)}
	}
	return mem[w.Index], nil
}

// Out stores v, the arriving value of the output word w, into one
// problem's host memory, or nowhere when it is a Discard.
func (w *Word) Out(mem []float64, v float64) error {
	switch {
	case w.Index == Discard:
		return nil
	case w.Index < 0 || int(w.Index) >= len(mem):
		return &indexError{"output", w.Index, len(mem)}
	}
	mem[w.Index] = v
	return nil
}

// indexError is a host word's index outside host memory.  It is
// formatted only when read, so that In and Out inline into the
// executors' loops.
type indexError struct {
	dir   string // "input" or "output"
	index int32
	words int
}

func (e *indexError) Error() string {
	return fmt.Sprintf("host %s index %d outside host memory of %d words", e.dir, e.index, e.words)
}

// Gather resolves the input word w against several problems' host
// memories: dst[l] is what the host sends from mems[l].
func (w *Word) Gather(dst []float64, mems [][]float64) error {
	for l, mem := range mems {
		v, err := w.In(mem)
		if err != nil {
			return err
		}
		dst[l] = v
	}
	return nil
}

// Scatter stores the output word w's arriving values, vals[l] into
// mems[l], or nowhere when it is a Discard.
func (w *Word) Scatter(mems [][]float64, vals []float64) error {
	for l, mem := range mems {
		if err := w.Out(mem, vals[l]); err != nil {
			return err
		}
	}
	return nil
}

// Program is the host I/O program: per channel, the input stream for
// the first cell and the output stream from the last cell.  A channel
// without traffic has no entry.
type Program struct {
	In  map[w2.Channel]Stream
	Out map[w2.Channel]Stream
}

// Stream is one host stream as the loop nest that generates it: the I/O
// operations of one (channel, direction) in program order, loops that
// hold none of them pruned.  Its length is the number of
// static operations; Words is the number of words.
type Stream []op

// op is one I/O operation of a stream.  Executed with the enclosing
// loops at iterations iter, it yields word with Index advanced by
// Σ coef·iter[depth] over terms; then it closes ends, innermost first.
type op struct {
	word  Word
	terms []mcode.LoopTerm
	ends  []loopEnd
	count int64 // dynamic executions: the product of the enclosing trip counts
	// body, on the first operation of an innermost loop, is the number of
	// operations in the loop (the last of them closes it before any
	// other); 0 elsewhere.
	body int
}

// loopEnd closes one loop: after its last operation the stream resumes
// at operation head until the loop has run trips times (at least one).
type loopEnd struct {
	depth int
	trips int64
	head  int
}

// Words returns the number of words the stream holds.
func (s Stream) Words() int64 {
	var n int64
	for i := range s {
		n += s[i].count
	}
	return n
}

// String renders the nest — what driver.Fingerprint pins of a host
// program.
func (s Stream) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d words:", s.Words())
	for i := range s {
		o := &s[i]
		switch {
		case o.word.Literal:
			fmt.Fprintf(&sb, " %d:lit(%g)", i, o.word.Value)
		case o.word.Index == Discard && len(o.terms) == 0:
			fmt.Fprintf(&sb, " %d:discard", i)
		default:
			fmt.Fprintf(&sb, " %d:@%d", i, o.word.Index)
			for _, t := range o.terms {
				fmt.Fprintf(&sb, "%+d*i%d", t.Coef, t.Depth)
			}
		}
		for _, e := range o.ends {
			fmt.Fprintf(&sb, " loop(i%d<%d from %d)", e.depth, e.trips, e.head)
		}
	}
	return sb.String()
}

// Of returns the stream of the given words, in order — a host program
// written out by hand.
func Of(words ...Word) Stream {
	s := make(Stream, len(words))
	for i, w := range words {
		s[i] = op{word: w, count: 1}
	}
	return s
}

// blockWords is the size of the block a Reader's Next reads ahead: large
// enough to amortise a block's set-up, small enough that a run's readers
// stay in the first-level cache beside the executor's own state.
const blockWords = 128

// Reader hands out the words of a stream in order, through Read a block
// at a time or through Next one by one (not both: Next reads ahead).
// Neither allocates.  The zero Reader reads nothing until Reset.
type Reader struct {
	s      Stream
	pc     int     // next operation
	iter   []int64 // per nesting depth: iterations the open loop has completed
	pos, n int     // Next's position in its block, and how much of the block is filled
	buf    [blockWords]Word
	nest   [4]int64 // iter's room for a stream nested at most four deep
}

// Reset readies r to read s from its start.  A reader is a value, block
// and loop counters included, so that an executor holds its readers in
// its own state and resets them without allocating (a stream nested
// deeper than four loops allocates its counters once, and a pooled
// reader keeps them); it must not be copied once in use.
func (r *Reader) Reset(s Stream) {
	depth := 0
	for i := range s {
		for _, e := range s[i].ends {
			depth = max(depth, e.depth+1)
		}
	}
	switch {
	case depth <= len(r.nest):
		r.iter = r.nest[:depth]
	case cap(r.iter) < depth:
		r.iter = make([]int64, depth)
	}
	r.iter = r.iter[:depth]
	clear(r.iter)
	r.s, r.pc, r.pos, r.n = s, 0, 0, 0
}

// Read fills buf with the next words of the stream and returns how many
// it wrote: len(buf) until the stream runs out.
func (r *Reader) Read(buf []Word) int {
	n := 0
	for n < len(buf) && r.pc < len(r.s) {
		o := &r.s[r.pc]
		if k := r.run(o, buf[n:]); k > 0 {
			n += k
			continue
		}
		buf[n] = r.word(o)
		n++
		r.pc++
		r.close(o.ends)
	}
	return n
}

// word returns o's word at the current iteration of the loops around it.
func (r *Reader) word(o *op) Word {
	w := o.word
	for _, t := range o.terms {
		w.Index += int32(t.Coef * r.iter[t.Depth])
	}
	return w
}

// close steps the loops that end after an operation, innermost first:
// the first with iterations left resumes at its head.
func (r *Reader) close(ends []loopEnd) {
	for _, e := range ends {
		if r.iter[e.depth]++; r.iter[e.depth] < e.trips {
			r.pc = e.head
			return
		}
		r.iter[e.depth] = 0
	}
}

// run is the fast path that keeps a word's cost near a store: at the
// first operation o of an innermost loop it writes as many whole
// iterations as fit in buf, operation by operation with a constant
// stride each, and returns the number of words written.
func (r *Reader) run(o *op, buf []Word) int {
	if o.body == 0 || len(buf) < o.body {
		return 0
	}
	body := r.s[r.pc : r.pc+o.body]
	ends := body[len(body)-1].ends
	loop := ends[0]
	words := len(body) * int(min(loop.trips-r.iter[loop.depth], int64(len(buf)/len(body))))
	for j := range body {
		w, stride := r.word(&body[j]), int32(0)
		for _, t := range body[j].terms {
			if t.Depth == loop.depth {
				stride += int32(t.Coef)
			}
		}
		fill(buf[j:words], len(body), w, stride)
	}
	r.iter[loop.depth] += int64(words/len(body) - 1)
	r.pc += len(body)
	r.close(ends)
	return words
}

// fill writes w to every step-th word of out, its index advancing by
// stride from one to the next.  A function of its own so that the loop,
// which is where a reader's time goes, has the registers to itself.
//
//go:noinline
func fill(out []Word, step int, w Word, stride int32) {
	for p := 0; p < len(out); p += step {
		out[p] = w
		w.Index += stride
	}
}

// Next returns the next word, valid until the next call, or nil once the
// stream has run out.
func (r *Reader) Next() *Word {
	if r.pos < r.n {
		r.pos++
		return &r.buf[r.pos-1]
	}
	return r.refill()
}

// refill is Next at the end of its block.  It stays out of line so that
// Next itself is small enough to inline into the executors' loops.
//
//go:noinline
func (r *Reader) refill() *Word {
	if r.n = r.Read(r.buf[:]); r.n == 0 {
		r.pos = 0
		return nil
	}
	r.pos = 1
	return &r.buf[0]
}

// Generate walks the cell program once and produces the host program.
// Every receive on the array's input side must carry an external binding
// (the first cell receives it from the host); sends without externals
// are discarded on output.  A loop runs its body max(Trips, 1) times, as
// the sequencer's do-while loops do, so every operation executes and
// resolves.  Word counts are exact: a stream whose count overflows, or an
// address that leaves the range of Word.Index, fails the generation.
func Generate(cell *mcode.CellProgram) (*Program, error) {
	var b builder
	mcode.Fold(cell.Items, scope{mult: 1}, b.instr, b.enter, b.exit)
	if b.err != nil {
		return nil, b.err
	}
	prog := &Program{In: map[w2.Channel]Stream{}, Out: map[w2.Channel]Stream{}}
	for ch, s := range b.streams {
		if len(s[1]) > 0 {
			prog.In[w2.Channel(ch)] = s[1]
		}
		if len(s[0]) > 0 {
			prog.Out[w2.Channel(ch)] = s[0]
		}
	}
	return prog, nil
}

// GenerateParallel is Generate; generation is a single pass over the
// microcode, with nothing left for workers to share.
func GenerateParallel(cell *mcode.CellProgram, workers int) (*Program, error) {
	return Generate(cell)
}

// numChans bounds the channel index space (ChanX, ChanY).
const numChans = 2

// maxIndex bounds a resolved host address: Word.Index is 32 bits wide,
// which keeps a word at 16 bytes.
const maxIndex = math.MaxInt32

// overflowed stands for a trip-count product past int64.
const overflowed = -1

type builder struct {
	streams [numChans][2]Stream // by channel, then 0 = sends, 1 = receives
	words   [numChans][2]int64
	err     error // the first refusal
}

// scope is what the fold carries into a loop body: how often the body
// executes (or overflowed), the product of the enclosing trip counts,
// and where its streams start.
type scope struct {
	mult  int64
	heads [numChans][2]int
}

// instr appends the I/O operations of in, which executes v.mult times.
func (b *builder) instr(v scope, in *mcode.Instr, s *mcode.CellSite) scope {
	for i := 0; i < len(in.IO) && b.err == nil; i++ {
		if err := b.add(&in.IO[i], v.mult, s.Loops); err != nil {
			b.err = fmt.Errorf("hostgen: %s: %w", in.Pos, err)
		}
	}
	return v
}

func (b *builder) enter(v scope, l *mcode.LoopItem, _ *mcode.CellSite) scope {
	inner := scope{mult: overflowed}
	if trips := max(l.Trips, 1); v.mult != overflowed && v.mult <= math.MaxInt64/trips {
		inner.mult = v.mult * trips
	}
	for ch := range b.streams {
		inner.heads[ch] = [2]int{len(b.streams[ch][0]), len(b.streams[ch][1])}
	}
	return inner
}

// exit closes loop l around the operations its body appended.
func (b *builder) exit(v scope, l *mcode.LoopItem, s *mcode.CellSite, _ int64, inner scope) scope {
	end := loopEnd{depth: len(s.Loops), trips: max(l.Trips, 1)}
	for ch := range b.streams {
		for dir, st := range b.streams[ch] {
			head := inner.heads[ch][dir]
			if len(st) == head {
				continue
			}
			innermost := true
			for j := head; j < len(st); j++ {
				innermost = innermost && len(st[j].ends) == 0
			}
			if innermost {
				st[head].body = len(st) - head
			}
			last := &st[len(st)-1]
			end.head = head
			last.ends = append(last.ends, end)
		}
	}
	return v
}

// add resolves one I/O operation that executes mult times against the
// enclosing loops and appends it to its stream.
func (b *builder) add(io *mcode.IOOp, mult int64, loops []*mcode.LoopItem) error {
	dir := 0
	if io.Recv {
		dir = 1
	}
	total := &b.words[io.Chan][dir]
	if mult == overflowed || *total > math.MaxInt64-mult {
		return fmt.Errorf("host stream on %s longer than %d words", io.Chan, int64(math.MaxInt64))
	}
	*total += mult
	o := op{word: Word{Index: Discard}}
	switch {
	case io.Recv && io.IsLiteral:
		o.word = Word{Literal: true, Value: io.Literal}
	case io.Ext.Sym != nil:
		var err error
		if o, err = resolve(&io.Ext, loops); err != nil {
			return err
		}
	case io.Recv:
		return fmt.Errorf("a receive on channel %s has no external binding; the first cell would starve (every receive from the host side needs an external, §4.3)", io.Chan)
	}
	o.count = mult
	b.streams[io.Chan][dir] = append(b.streams[io.Chan][dir], o)
	return nil
}

// resolve binds the external's address to the enclosing loops
// (mcode.AddrInfo.Bind) and checks that it stays within a Word's index.
func resolve(a *mcode.AddrInfo, loops []*mcode.LoopItem) (op, error) {
	r, err := a.Bind(loops, nil)
	if err != nil {
		return op{}, fmt.Errorf("external %w", err)
	}
	if r.Lo < -maxIndex || r.Hi > maxIndex {
		return op{}, fmt.Errorf("external %s resolves to host addresses %d..%d, outside ±%d", a, r.Lo, r.Hi, int64(maxIndex))
	}
	return op{word: Word{Index: int32(r.Start)}, terms: r.Terms}, nil
}
