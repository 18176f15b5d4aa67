// Package parser implements the concrete syntax of the library, the same
// one syntax.String renders (round-trip guaranteed by tests):
//
//	0                         nil
//	tau.P                     silent prefix
//	a?(x,y).P                 input (binds x,y in P); "a?" ≡ "a?()"
//	a!(x,y).P                 output; "a!" for the empty tuple
//	P + Q                     choice           (lowest precedence)
//	P | Q                     parallel
//	nu x.P   nu x,y.P         restriction      (body extends to a prefix-level term)
//	[x=y]P   [x=y](P, Q)      match with optional else branch
//	A(x,y)                    identifier call  (identifiers start uppercase)
//	(rec A(x).P)(y)           recursion
//	let A(x,y) = P            definition (Program only)
//
// Names start with a lowercase letter, identifiers with an uppercase one.
package parser

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// MaxDepth bounds how deeply a term may nest: prefixes, restrictions,
// matches and parentheses each take one level. The parser recurses once per
// level, so the bound keeps hostile input from overflowing the goroutine
// stack. Each level costs at least two bytes of source, so every term under
// bpid's 64 KiB cap nests less than half as deep as this.
const MaxDepth = 1 << 16

// ErrTooDeep is wrapped by the error for a term nesting deeper than MaxDepth.
var ErrTooDeep = errors.New("term nests too deeply")

// Parse parses a single process term.
func Parse(src string) (syntax.Proc, error) {
	p := &parser{toks: lex(src), src: src}
	t, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errf("unexpected %q after term", p.peek().text)
	}
	return t, nil
}

// Excerpt returns src cut to at most its first 64 bytes (at a rune
// boundary, marked "..." when cut), for quoting a term in an error message
// without copying all of it.
func Excerpt(src string) string {
	const max = 64
	if len(src) <= max {
		return src
	}
	n := max
	for n > 0 && !utf8.RuneStart(src[n]) {
		n--
	}
	return src[:n] + "..."
}

// Program is a parsed source file: definitions plus an optional main term.
type Program struct {
	Env  syntax.Env
	Main syntax.Proc // nil if the source only declares definitions
}

// ParseProgram parses a sequence of "let A(x̃) = P" definitions followed by
// an optional main term, separated by newlines or semicolons, and validates
// the definitions (syntax.Env.Validate): a body with free names outside its
// parameters, a call of the wrong arity or an unguarded cycle is an error.
func ParseProgram(src string) (*Program, error) {
	prog := &Program{Env: syntax.Env{}}
	p := &parser{toks: lex(src), src: src}
	for !p.eof() {
		if p.peek().kind == tokSemi {
			p.next()
			continue
		}
		if p.peek().kind == tokIdent && p.peek().text == "let" {
			p.next()
			if err := p.parseDef(prog); err != nil {
				return nil, err
			}
			continue
		}
		main, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		prog.Main = main
		for !p.eof() && p.peek().kind == tokSemi {
			p.next()
		}
		if !p.eof() {
			return nil, p.errf("unexpected %q after main term", p.peek().text)
		}
	}
	if err := prog.Env.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) parseDef(prog *Program) error {
	id := p.next()
	if id.kind != tokUpper {
		return p.errf("definition name must start uppercase, got %q", id.text)
	}
	params, err := p.parseNameTuple(true)
	if err != nil {
		return err
	}
	if tk := p.next(); tk.kind != tokEq {
		return p.errf("expected '=' in definition of %s, got %q", id.text, tk.text)
	}
	body, err := p.parseSum()
	if err != nil {
		return err
	}
	prog.Env = prog.Env.Define(id.text, params, body)
	return nil
}

// ---- lexer -----------------------------------------------------------------

type tokKind int

const (
	tokEOF   tokKind = iota
	tokIdent         // lowercase identifier (name or keyword)
	tokUpper         // uppercase identifier
	tokBang          // !
	tokQuery         // ?
	tokDot           // .
	tokPlus          // +
	tokBar           // |
	tokLPar          // (
	tokRPar          // )
	tokLBrk          // [
	tokRBrk          // ]
	tokEq            // =
	tokComma         // ,
	tokZero          // 0
	tokSemi          // ; or newline
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) []token {
	out := make([]token, 0, tokenBound(src))
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '\n' || c == ';':
			// Go-style separator insertion: a newline only separates program
			// items when the previous token can end a term, so multi-line
			// terms broken after an operator keep working.
			if c == ';' || canEndTerm(out) {
				out = append(out, token{tokSemi, src[i : i+1], i})
			}
			i++
		case c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '0':
			out = append(out, token{tokZero, "0", i})
			i++
		case c == '!':
			out = append(out, token{tokBang, "!", i})
			i++
		case c == '?':
			out = append(out, token{tokQuery, "?", i})
			i++
		case c == '.':
			out = append(out, token{tokDot, ".", i})
			i++
		case c == '+':
			out = append(out, token{tokPlus, "+", i})
			i++
		case c == '|':
			out = append(out, token{tokBar, "|", i})
			i++
		case c == '(':
			out = append(out, token{tokLPar, "(", i})
			i++
		case c == ')':
			out = append(out, token{tokRPar, ")", i})
			i++
		case c == '[':
			out = append(out, token{tokLBrk, "[", i})
			i++
		case c == ']':
			out = append(out, token{tokRBrk, "]", i})
			i++
		case c == '=':
			out = append(out, token{tokEq, "=", i})
			i++
		case c == ',':
			out = append(out, token{tokComma, ",", i})
			i++
		case isIdentStart(rune(c)):
			j := i
			for j < len(src) && isIdentRune(rune(src[j])) {
				j++
			}
			word := src[i:j]
			kind := tokIdent
			if unicode.IsUpper(rune(word[0])) {
				kind = tokUpper
			}
			out = append(out, token{kind, word, i})
			i = j
		default:
			out = append(out, token{tokEOF, string(c), i})
			i++
		}
	}
	return out
}

// tokenBound is an upper bound on the number of tokens lex emits for src,
// so that lex allocates its slice once: every byte that is not blank counts,
// except one that continues an identifier, since lex emits at most one
// token per counted byte. Comments and newlines count although they may
// emit none. The bound is not len(src), which long identifiers would make
// several times the token count.
func tokenBound(src string) int {
	n, word := 0, false
	for i := 0; i < len(src); i++ {
		r := rune(src[i])
		if word && isIdentRune(r) {
			continue
		}
		word = isIdentStart(r)
		if r != ' ' && r != '\t' && r != '\r' {
			n++
		}
	}
	return n
}

// canEndTerm reports whether the last emitted token can syntactically close
// a term (which is when a following newline acts as a separator).
func canEndTerm(toks []token) bool {
	if len(toks) == 0 {
		return false
	}
	switch toks[len(toks)-1].kind {
	case tokZero, tokRPar, tokRBrk, tokIdent, tokUpper, tokBang, tokQuery:
		return true
	}
	return false
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	// The fresh-marker rune is accepted so that printed machine-generated
	// states (which may contain fresh variants like "x·1") parse back.
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\'' ||
		strings.ContainsRune(names.FreshMarker, r)
}

// ---- parser ----------------------------------------------------------------

type parser struct {
	toks  []token
	pos   int
	src   string
	depth int // parseUnary frames active; bounded by MaxDepth
}

func (p *parser) peek() token {
	// Skip insignificant newlines inside terms: they only matter between
	// program items, which the program loop handles before entering terms.
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return token{tokEOF, "", len(p.src)}
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) eof() bool {
	return p.pos >= len(p.toks)
}

func (p *parser) errf(format string, args ...any) error {
	pos := len(p.src)
	if p.pos < len(p.toks) {
		pos = p.toks[p.pos].pos
	}
	line := 1 + strings.Count(p.src[:pos], "\n")
	return fmt.Errorf("parser: line %d: "+format, append([]any{line}, args...)...)
}

// parseSum: par ('+' par)*
func (p *parser) parseSum() (syntax.Proc, error) {
	l, err := p.parsePar()
	if err != nil {
		return nil, err
	}
	parts := []syntax.Proc{l}
	for !p.eof() && p.peek().kind == tokPlus {
		p.next()
		r, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		parts = append(parts, r)
	}
	return syntax.Choice(parts...), nil
}

// parsePar: unary ('|' unary)*
func (p *parser) parsePar() (syntax.Proc, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	parts := []syntax.Proc{l}
	for !p.eof() && p.peek().kind == tokBar {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, r)
	}
	return syntax.Group(parts...), nil
}

// parseUnary: prefix chains, restriction, match, atoms. Every recursive
// path of the grammar passes through here, so this is where depth counts.
func (p *parser) parseUnary() (syntax.Proc, error) {
	if p.depth++; p.depth > MaxDepth {
		return nil, p.errf("more than %d nested levels: %w", MaxDepth, ErrTooDeep)
	}
	defer func() { p.depth-- }()
	switch tk := p.peek(); tk.kind {
	case tokZero:
		p.next()
		return syntax.PNil, nil
	case tokLBrk:
		return p.parseMatch()
	case tokLPar:
		return p.parseParenOrRec()
	case tokUpper:
		return p.parseCall()
	case tokIdent:
		switch tk.text {
		case "nu", "new":
			return p.parseNu()
		case "tau":
			p.next()
			cont, err := p.parseCont()
			if err != nil {
				return nil, err
			}
			return syntax.TauP(cont), nil
		default:
			return p.parsePrefixed()
		}
	default:
		return nil, p.errf("unexpected %q at start of term", tk.text)
	}
}

func (p *parser) parseCont() (syntax.Proc, error) {
	if !p.eof() && p.peek().kind == tokDot {
		p.next()
		return p.parseUnary()
	}
	return syntax.PNil, nil
}

func (p *parser) parseNu() (syntax.Proc, error) {
	p.next() // nu
	var xs []names.Name
	for {
		tk := p.next()
		if tk.kind != tokIdent {
			return nil, p.errf("expected name after nu, got %q", tk.text)
		}
		xs = append(xs, names.Name(tk.text))
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if tk := p.next(); tk.kind != tokDot {
		return nil, p.errf("expected '.' after nu binder, got %q", tk.text)
	}
	body, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return syntax.Restrict(body, xs...), nil
}

func (p *parser) parseMatch() (syntax.Proc, error) {
	p.next() // [
	xt := p.next()
	if xt.kind != tokIdent {
		return nil, p.errf("expected name in match, got %q", xt.text)
	}
	if tk := p.next(); tk.kind != tokEq {
		return nil, p.errf("expected '=' in match, got %q", tk.text)
	}
	yt := p.next()
	if yt.kind != tokIdent {
		return nil, p.errf("expected name in match, got %q", yt.text)
	}
	if tk := p.next(); tk.kind != tokRBrk {
		return nil, p.errf("expected ']' in match, got %q", tk.text)
	}
	x, y := names.Name(xt.text), names.Name(yt.text)
	// Either "(then, else)" or a single unary then-branch.
	if p.peek().kind == tokLPar {
		save := p.pos
		p.next()
		then, err := p.parseSum()
		if err == nil && p.peek().kind == tokComma {
			p.next()
			els, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			if tk := p.next(); tk.kind != tokRPar {
				return nil, p.errf("expected ')' closing match, got %q", tk.text)
			}
			return syntax.If(x, y, then, els), nil
		}
		// Not a two-branch match: rewind and parse as a parenthesised term.
		p.pos = save
	}
	then, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return syntax.If(x, y, then, syntax.PNil), nil
}

func (p *parser) parseParenOrRec() (syntax.Proc, error) {
	save := p.pos
	p.next() // (
	if p.peek().kind == tokIdent && p.peek().text == "rec" {
		p.next()
		id := p.next()
		if id.kind != tokUpper {
			return nil, p.errf("rec identifier must start uppercase, got %q", id.text)
		}
		params, err := p.parseNameTuple(true)
		if err != nil {
			return nil, err
		}
		if tk := p.next(); tk.kind != tokDot {
			return nil, p.errf("expected '.' after rec binder, got %q", tk.text)
		}
		body, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if tk := p.next(); tk.kind != tokRPar {
			return nil, p.errf("expected ')' closing rec, got %q", tk.text)
		}
		args, err := p.parseNameTuple(true)
		if err != nil {
			return nil, err
		}
		if len(args) != len(params) {
			return nil, p.errf("rec %s: %d params but %d args", id.text, len(params), len(args))
		}
		return syntax.Rec{Id: id.text, Params: params, Body: body, Args: args}, nil
	}
	// Parenthesised term.
	p.pos = save
	p.next() // (
	t, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if tk := p.next(); tk.kind != tokRPar {
		return nil, p.errf("expected ')', got %q", tk.text)
	}
	return t, nil
}

func (p *parser) parseCall() (syntax.Proc, error) {
	id := p.next()
	args, err := p.parseNameTuple(true)
	if err != nil {
		return nil, err
	}
	return syntax.Call{Id: id.text, Args: args}, nil
}

// parsePrefixed parses name!(args).cont or name?(params).cont.
func (p *parser) parsePrefixed() (syntax.Proc, error) {
	ch := p.next()
	n := names.Name(ch.text)
	switch p.peek().kind {
	case tokBang:
		p.next()
		args, err := p.parseNameTuple(false)
		if err != nil {
			return nil, err
		}
		cont, err := p.parseCont()
		if err != nil {
			return nil, err
		}
		return syntax.Send(n, args, cont), nil
	case tokQuery:
		p.next()
		params, err := p.parseNameTuple(false)
		if err != nil {
			return nil, err
		}
		cont, err := p.parseCont()
		if err != nil {
			return nil, err
		}
		seen := names.NewSet()
		for _, q := range params {
			if seen.Contains(q) {
				return nil, p.errf("duplicate input parameter %q", q)
			}
			seen = seen.Add(q)
		}
		return syntax.Recv(n, params, cont), nil
	default:
		return nil, p.errf("expected '!' or '?' after channel %q", ch.text)
	}
}

// parseNameTuple parses "(a,b,c)"; when required is false the tuple is
// optional (missing means empty). Empty tuples "()" are allowed.
func (p *parser) parseNameTuple(required bool) ([]names.Name, error) {
	if p.eof() || p.peek().kind != tokLPar {
		if required {
			return nil, p.errf("expected '(' for name tuple")
		}
		return nil, nil
	}
	p.next() // (
	var out []names.Name
	if p.peek().kind == tokRPar {
		p.next()
		return out, nil
	}
	for {
		tk := p.next()
		if tk.kind != tokIdent {
			return nil, p.errf("expected name in tuple, got %q", tk.text)
		}
		out = append(out, names.Name(tk.text))
		switch p.peek().kind {
		case tokComma:
			p.next()
		case tokRPar:
			p.next()
			return out, nil
		default:
			return nil, p.errf("expected ',' or ')' in tuple, got %q", p.peek().text)
		}
	}
}
