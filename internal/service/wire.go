package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"warp"
)

// The /run wire path (DESIGN §6).  A body is read once into a pooled
// buffer and parsed in one pass if it has the shape json.Marshal gives a
// RunRequest; anything else goes, as the same bytes, to encoding/json,
// so what is accepted and every error text stay the reference's.

// wireBufMax is the largest buffer the pools keep.
const wireBufMax = 1 << 20

// runDecoder is one /run body and its pooled parse state.
type runDecoder struct {
	buf  bytes.Buffer
	b    []byte // buf's bytes
	i    int    // the parse position in b
	nums []float64
	ins  []inputSpan
}

// inputSpan is one input parameter's values, nums[lo:hi].
type inputSpan struct {
	name   []byte
	lo, hi int
}

var runDecoders = sync.Pool{New: func() any { return new(runDecoder) }}

// decodeRun decodes a /run body into req exactly as s.decode would.
func (s *Server) decodeRun(w http.ResponseWriter, r *http.Request, req *RunRequest) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	d := runDecoders.Get().(*runDecoder)
	defer func() {
		if d.buf.Cap() <= wireBufMax && cap(d.nums) <= wireBufMax/8 {
			runDecoders.Put(d)
		}
	}()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(body); err != nil {
		// Cut short by the limit or the transport: the reference decides,
		// as it always has, whether the value ended before the cut.
		return decodeJSON(io.MultiReader(bytes.NewReader(d.buf.Bytes()), body), req)
	}
	d.b, d.i = d.buf.Bytes(), 0
	if d.request(req) {
		return nil
	}
	*req = RunRequest{}
	return decodeJSON(bytes.NewReader(d.b), req)
}

// decodeJSON is the reference decoder, the one /compile and /batch use.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &httpError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()}
	}
	return nil
}

// request parses the body's first value into req; false leaves it to
// the reference.
func (d *runDecoder) request(req *RunRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "program":
			return d.string(&req.Program)
		case "source":
			return d.string(&req.Source)
		case "options":
			return d.options(&req.Options)
		case "inputs":
			return d.inputs(&req.Inputs)
		case "timeout_ms":
			return d.int(&req.TimeoutMS, 64)
		case "max_cycles":
			return d.int(&req.MaxCycles, 64)
		case "profile":
			return d.bool(&req.Profile)
		case "backend":
			return d.string(&req.Backend)
		}
		return false // a partition stanza, a case-folded or unknown key
	})
}

func (d *runDecoder) options(o *CompileOptions) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "no_optimize":
			return d.bool(&o.NoOptimize)
		case "pipeline":
			return d.bool(&o.Pipeline)
		case "cells":
			var n int64
			ok := d.int(&n, strconv.IntSize)
			o.Cells = int(n)
			return ok
		case "symbolic":
			return d.bool(&o.Symbolic)
		case "bounds":
			o.Bounds = map[string]int64{}
			return d.object(func(key []byte) bool {
				var n int64
				ok := d.int(&n, 64)
				o.Bounds[string(key)] = n
				return ok
			})
		}
		return false
	})
}

// inputs parses the inputs into one arena, each parameter's values a
// capped slice of it.
func (d *runDecoder) inputs(m *map[string][]float64) bool {
	d.nums, d.ins = d.nums[:0], d.ins[:0]
	ok := d.object(func(key []byte) bool {
		lo := len(d.nums)
		if !d.byte('[') {
			return false
		}
		for n := 0; !d.byte(']'); n++ {
			if n > 0 && !d.byte(',') {
				return false
			}
			lit, ok := d.number(false)
			v, err := strconv.ParseFloat(string(lit), 64)
			if !ok || err != nil {
				return false
			}
			d.nums = append(d.nums, v)
		}
		d.ins = append(d.ins, inputSpan{key, lo, len(d.nums)})
		return true
	})
	if !ok {
		return false
	}
	arena := make([]float64, len(d.nums)) // non-nil: [] decodes to an empty slice
	copy(arena, d.nums)
	*m = make(map[string][]float64, len(d.ins))
	for _, in := range d.ins {
		(*m)[string(in.name)] = arena[in.lo:in.hi:in.hi]
	}
	return true
}

// object parses an object of at most 16 distinct plain-ASCII keys,
// handing each key to field with the position at its value.  A repeated
// key is the reference's: it merges or overwrites.
func (d *runDecoder) object(field func(key []byte) bool) bool {
	if !d.byte('{') {
		return false
	}
	var keys [16][]byte
	for n := 0; !d.byte('}'); n++ {
		if n > 0 && !d.byte(',') || n == len(keys) || !d.byte('"') {
			return false
		}
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' {
			if c := d.b[d.i]; c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
				return false
			}
			d.i++
		}
		if d.i == len(d.b) {
			return false
		}
		keys[n] = d.b[start:d.i]
		d.i++
		for _, k := range keys[:n] {
			if bytes.Equal(k, keys[n]) {
				return false
			}
		}
		if !d.byte(':') || !field(keys[n]) {
			return false
		}
	}
	return true
}

// space skips white space.
func (d *runDecoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// byte consumes c, after any white space, if it comes next.
func (d *runDecoder) byte(c byte) bool {
	d.space()
	return d.skip(c, c)
}

// skip consumes the next byte if it is c0 or c1.
func (d *runDecoder) skip(c0, c1 byte) bool {
	if d.i < len(d.b) && (d.b[d.i] == c0 || d.b[d.i] == c1) {
		d.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (d *runDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// number returns the next value's text if it is a number in JSON's
// grammar (an integer, if integer): ParseFloat and ParseInt alone would
// also take Inf, 0x1p3, +1 and 01.
func (d *runDecoder) number(integer bool) ([]byte, bool) {
	d.space()
	start := d.i
	d.skip('-', '-')
	ok := d.skip('0', '0') || d.digits()
	if !integer && ok && d.skip('.', '.') {
		ok = d.digits()
	}
	if !integer && ok && d.skip('e', 'E') {
		d.skip('+', '-')
		ok = d.digits()
	}
	return d.b[start:d.i], ok
}

func (d *runDecoder) int(v *int64, bits int) bool {
	lit, ok := d.number(true)
	n, err := strconv.ParseInt(string(lit), 10, bits)
	*v = n
	return ok && err == nil
}

func (d *runDecoder) bool(v *bool) bool {
	d.space()
	for _, lit := range [...]string{"true", "false"} {
		if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
			d.i += len(lit)
			*v = lit == "true"
			return true
		}
	}
	return false
}

// string parses an ASCII string value whose escapes are JSON's, less
// \/ (json.Marshal never writes it): strconv.Unquote reads those as JSON
// does and refuses a surrogate \uXXXX.
func (d *runDecoder) string(v *string) bool {
	if !d.byte('"') {
		return false
	}
	start := d.i - 1
	for ; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
		switch c := d.b[d.i]; {
		case c < 0x20 || c >= utf8.RuneSelf:
			return false
		case c == '\\':
			if d.i++; d.i == len(d.b) || !bytes.ContainsRune([]byte(`"\bfnrtu`), rune(d.b[d.i])) {
				return false
			}
		}
	}
	if d.i == len(d.b) {
		return false
	}
	d.i++
	s, err := strconv.Unquote(string(d.b[start:d.i]))
	*v = s
	return err == nil
}

// wireEncoder is a pooled response buffer and an encoder into it.
type wireEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var wireEncoders = sync.Pool{New: func() any {
	e := new(wireEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeJSON answers with v as json.NewEncoder(w).Encode(v) writes it,
// encoded before the header so that a failure is a 500 with a body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := wireEncoders.Get().(*wireEncoder)
	defer func() {
		if e.buf.Cap() <= wireBufMax {
			wireEncoders.Put(e)
		}
	}()
	e.buf.Reset()
	var err error
	if resp, ok := v.(*RunResponse); ok {
		err = e.runResponse(resp)
	} else {
		err = e.enc.Encode(v)
	}
	if err != nil {
		status = http.StatusInternalServerError
		e.buf.Reset()
		_ = e.enc.Encode(errorResponse{Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
}

// runResponse writes resp as the encoder would, appending the outputs'
// numbers itself.  The fields around them go through the encoder as two
// structs: the first's closing brace cut, the second's opening brace
// made a comma.
func (e *wireEncoder) runResponse(resp *RunResponse) error {
	if err := e.enc.Encode(struct {
		Program string `json:"program"`
		Cached  bool   `json:"cached"`
	}{resp.Program, resp.Cached}); err != nil {
		return err
	}
	e.buf.Truncate(e.buf.Len() - len("}\n"))
	e.buf.WriteString(`,"outputs":`)
	if err := e.outputs(resp.Outputs); err != nil {
		return err
	}
	at := e.buf.Len()
	if err := e.enc.Encode(struct {
		Stats    RunStatsJSON   `json:"stats"`
		Fabric   *FabricJSON    `json:"fabric,omitempty"`
		Request  string         `json:"request,omitempty"`
		Decision *warp.Decision `json:"decision,omitempty"`
	}{resp.Stats, resp.Fabric, resp.Request, resp.Decision}); err != nil {
		return err
	}
	e.buf.Bytes()[at] = ','
	return nil
}

// outputs appends the outputs map: names sorted and escaped by the
// encoder, numbers in its format ('e' below 1e-6 and from 1e21 on, its
// exponent at least one digit, not two).
func (e *wireEncoder) outputs(outs map[string][]float64) error {
	if outs == nil {
		e.buf.WriteString("null")
		return nil
	}
	b := append(e.buf.AvailableBuffer(), '{')
	for i, name := range outputNames(outs) {
		if i > 0 {
			b = append(b, ',')
		}
		e.buf.Write(b)
		if err := e.enc.Encode(name); err != nil {
			return err
		}
		e.buf.Truncate(e.buf.Len() - len("\n"))
		b = append(e.buf.AvailableBuffer(), ':')
		vals := outs[name]
		if vals == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, f := range vals {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				_, err := json.Marshal(f)
				return err
			}
			if j > 0 {
				b = append(b, ',')
			}
			format := byte('f')
			if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
				format = 'e'
			}
			b = strconv.AppendFloat(b, f, format, -1, 64)
			if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1]
				b = b[:n-1]
			}
		}
		b = append(b, ']')
	}
	e.buf.Write(append(b, '}'))
	return nil
}

// outputNames is the outputs' names in the encoder's order.
func outputNames(outs map[string][]float64) []string {
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
