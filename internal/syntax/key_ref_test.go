package syntax_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/protocols"
	brand "bpi/internal/rand"
	"bpi/internal/semantics"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// refKey is the two-pass key that Key replaced: refCanon builds a copy of
// the term with every binder renamed to "\x01" plus its index in traversal
// order, and refWriteKey prints that copy. Ledger pair keys, certificate
// hashes and KeyHash are all derived from these bytes, so Key must produce
// them exactly.
func refKey(p syntax.Proc) string {
	var b strings.Builder
	k := 0
	refWriteKey(refCanon(p, nil, &k), &b)
	return b.String()
}

func refCanonName(k *int) syntax.Name {
	*k++
	return syntax.Name(fmt.Sprintf("\x01%d", *k))
}

func refCanon(p syntax.Proc, env names.Subst, k *int) syntax.Proc {
	look := func(n syntax.Name) syntax.Name { return env.Apply(n) }
	switch t := p.(type) {
	case syntax.Nil:
		return t
	case syntax.Prefix:
		switch pre := t.Pre.(type) {
		case syntax.Tau:
			return syntax.Prefix{Pre: pre, Cont: refCanon(t.Cont, env, k)}
		case syntax.Out:
			return syntax.Prefix{Pre: syntax.Out{Ch: look(pre.Ch), Args: env.ApplySlice(pre.Args)}, Cont: refCanon(t.Cont, env, k)}
		case syntax.In:
			inner := env.Clone()
			ps := make([]syntax.Name, len(pre.Params))
			for i, b := range pre.Params {
				ps[i] = refCanonName(k)
				inner[b] = ps[i]
			}
			return syntax.Prefix{Pre: syntax.In{Ch: look(pre.Ch), Params: ps}, Cont: refCanon(t.Cont, inner, k)}
		}
		panic("unknown prefix")
	case syntax.Sum:
		return syntax.Sum{L: refCanon(t.L, env, k), R: refCanon(t.R, env, k)}
	case syntax.Par:
		return syntax.Par{L: refCanon(t.L, env, k), R: refCanon(t.R, env, k)}
	case syntax.Res:
		inner := env.Clone()
		x := refCanonName(k)
		inner[t.X] = x
		return syntax.Res{X: x, Body: refCanon(t.Body, inner, k)}
	case syntax.Match:
		return syntax.Match{X: look(t.X), Y: look(t.Y), Then: refCanon(t.Then, env, k), Else: refCanon(t.Else, env, k)}
	case syntax.Call:
		return syntax.Call{Id: t.Id, Args: env.ApplySlice(t.Args)}
	case syntax.Rec:
		inner := env.Clone()
		ps := make([]syntax.Name, len(t.Params))
		for i, b := range t.Params {
			ps[i] = refCanonName(k)
			inner[b] = ps[i]
		}
		return syntax.Rec{Id: t.Id, Params: ps, Body: refCanon(t.Body, inner, k), Args: env.ApplySlice(t.Args)}
	}
	panic("unknown process node")
}

func refWriteKey(p syntax.Proc, b *strings.Builder) {
	writeNames := func(ns []syntax.Name) {
		for i, n := range ns {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(n))
		}
	}
	switch t := p.(type) {
	case syntax.Nil:
		b.WriteByte('0')
	case syntax.Prefix:
		switch pre := t.Pre.(type) {
		case syntax.Tau:
			b.WriteString("t.")
		case syntax.In:
			b.WriteString("i(" + string(pre.Ch) + ";")
			writeNames(pre.Params)
			b.WriteString(").")
		case syntax.Out:
			b.WriteString("o(" + string(pre.Ch) + ";")
			writeNames(pre.Args)
			b.WriteString(").")
		}
		refWriteKey(t.Cont, b)
	case syntax.Sum:
		b.WriteString("+(")
		refWriteKey(t.L, b)
		b.WriteByte('|')
		refWriteKey(t.R, b)
		b.WriteByte(')')
	case syntax.Par:
		b.WriteString("&(")
		refWriteKey(t.L, b)
		b.WriteByte('|')
		refWriteKey(t.R, b)
		b.WriteByte(')')
	case syntax.Res:
		b.WriteString("n(" + string(t.X) + ")")
		refWriteKey(t.Body, b)
	case syntax.Match:
		b.WriteString("m(" + string(t.X) + "=" + string(t.Y) + ")(")
		refWriteKey(t.Then, b)
		b.WriteByte('|')
		refWriteKey(t.Else, b)
		b.WriteByte(')')
	case syntax.Call:
		b.WriteString("c(" + t.Id + ";")
		writeNames(t.Args)
		b.WriteByte(')')
	case syntax.Rec:
		b.WriteString("r(" + t.Id + ";")
		writeNames(t.Params)
		b.WriteByte(';')
		writeNames(t.Args)
		b.WriteByte(')')
		refWriteKey(t.Body, b)
	}
}

// keyRefHandwritten are the binder shapes random terms rarely reach:
// shadowing, repeated parameters, rec parameters against arguments of the
// same name, matches on bound and free names, and restriction blocks out
// of order, with and without a repeated name.
func keyRefHandwritten(t *testing.T) []syntax.Proc {
	srcs := []string{
		"a?(x).a?(x).x!(x)",
		"x?(x).x!(x)",
		"nu x.nu x.x!",
		"nu x.(x?(x).x! | x!(x))",
		"a?(x,y).b?(y,x).x!(y)",
		"(rec A(x).x!.A(x))(x)",
		"(rec A(x,y).y?(x).A(y,x))(y,x)",
		"(rec A(x).tau.(rec B(x).x!(x).A(x))(x))(a)",
		"a?(x).[x=a](x!, [a=b]b!)",
		"nu y.[x=y](y!, x!)",
		"a?(x).(x?(y).[x=y]y! | nu x.[x=y]x!)",
		"A(a, b) + nu a.A(a, b)",
		"tau.0 + a! | b!(c) + 0",
		"nu b.nu a.(a! | b!)",
		"nu c.nu a.nu b.(a!(b) + c?(x).x!)",
		"nu b.nu a.nu b.(a! | b!)",
	}
	var out []syntax.Proc
	for _, src := range srcs {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out = append(out, p)
	}
	x := syntax.Name("x")
	return append(out,
		syntax.Recv("a", []syntax.Name{x, x}, syntax.SendN(x)),
		syntax.Rec{Id: "A", Params: []syntax.Name{x, x}, Body: syntax.SendN(x), Args: []syntax.Name{x, "a"}},
		syntax.Restrict(syntax.SendN("\x011"), "\x011"),
	)
}

// maxExplored caps the terms one explored call collects: 2,079 is the most
// any call collects today. A semantics fault that multiplies transitions
// fails the test at the cap rather than growing the corpus without bound.
const maxExplored = 4000

// explored returns up to limit states reachable from roots by symbolic
// transitions, with every transition target met on the way. It fails t
// rather than collect more than maxExplored terms.
func explored(t *testing.T, sys *semantics.System, roots []syntax.Proc, limit int) []syntax.Proc {
	var out []syntax.Proc
	seen := map[string]bool{}
	queue := append([]syntax.Proc(nil), roots...)
	for len(queue) > 0 && len(seen) < limit {
		p := queue[0]
		queue = queue[1:]
		if k := refKey(p); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		out = append(out, p)
		ts, err := sys.Steps(p)
		if err != nil {
			t.Fatalf("Steps(%s): %v", syntax.String(p), err)
		}
		if len(out)+len(ts) > maxExplored {
			rs := make([]string, len(roots))
			for i, r := range roots {
				rs[i] = syntax.String(r)
			}
			t.Fatalf("exploring from %q collects more than %d terms", rs, maxExplored)
		}
		for _, tr := range ts {
			out = append(out, tr.Target)
			queue = append(queue, tr.Target)
		}
	}
	return out
}

// refCorpus returns the terms the reference checks run over: random terms
// and their mutants, the handwritten binder shapes, the program fixtures,
// and the states and transition targets of the stress corpus and the
// protocol catalogue, each as it is and simplified by the reference.
func refCorpus(t *testing.T) []syntax.Proc {
	var terms []syntax.Proc
	g := brand.New(1, brand.Default())
	for i := 0; i < 10000; i++ {
		p := g.Term()
		terms = append(terms, p, g.MutateEquiv(p))
	}
	x, y := syntax.Name("x"), syntax.Name("y")
	env := syntax.Env{}.Define("A", []syntax.Name{x, y}, syntax.Send(x, []syntax.Name{y}, syntax.Call{Id: "A", Args: []syntax.Name{y, x}}))
	terms = append(terms, explored(t, semantics.NewSystem(env), keyRefHandwritten(t), 100)...)
	files, err := filepath.Glob("../../testdata/*.bpi")
	if err != nil || len(files) == 0 {
		t.Fatalf("program fixtures: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		terms = append(terms, explored(t, semantics.NewSystem(prog.Env), []syntax.Proc{prog.Main}, 100)...)
	}
	sys := semantics.NewSystem(nil)
	for _, c := range stress.Corpus() {
		terms = append(terms, explored(t, sys, []syntax.Proc{c.P, c.Q}, 200)...)
	}
	for _, s := range protocols.Catalogue() {
		terms = append(terms, explored(t, sys, []syntax.Proc{s.Impl, s.Spec}, 50)...)
	}
	for _, p := range terms[:len(terms)] {
		terms = append(terms, syntax.RefSimplify(p))
	}
	return terms
}

// TestKeyMatchesReference pins Key's bytes to the two-pass reference, and
// Simplify's result to the Simplify that rebuilds every node, over the
// reference corpus. Simplify must return a term Equal to the reference's,
// not merely alpha-equal, because the store prints a term as it was first
// interned; the corpus's simplified half is where Simplify returns its
// argument as it is.
func TestKeyMatchesReference(t *testing.T) {
	terms := refCorpus(t)
	for _, p := range terms {
		if got, want := syntax.Key(p), refKey(p); got != want {
			t.Fatalf("Key(%s)\n got  %q\n want %q", syntax.String(p), got, want)
		}
		if got, want := syntax.Simplify(p), syntax.RefSimplify(p); !syntax.Equal(got, want) {
			t.Fatalf("Simplify(%s)\n got  %s\n want %s", syntax.String(p), syntax.String(got), syntax.String(want))
		}
	}
	t.Logf("%d terms keyed and simplified", len(terms))
}

// stepsOutputHash pins what Steps derives for every term of refCorpus:
// each transition's label, its target as printed and its target's key, in
// the order Steps returns them, or the error. A reordered list, another
// duplicate kept by dedupe or a respelled target moves it; the certificate
// goldens, a few pairs each, can miss all three.
const stepsOutputHash = "106780eb1faff9b74c63506c5d1d294b305202320555c990d4bbdbdbb7ecebf7"

// TestStepsOutputPinned hashes the Steps result of each refCorpus term,
// derived over the empty environment, into one SHA-256.
func TestStepsOutputPinned(t *testing.T) {
	terms := refCorpus(t)
	sys := semantics.NewSystem(nil)
	h := sha256.New()
	ntrans := 0
	for _, p := range terms {
		ts, err := sys.Steps(p)
		if err != nil {
			fmt.Fprintf(h, "error %s\n", err)
			continue
		}
		for _, tr := range ts {
			fmt.Fprintf(h, "%s\x00%s\x00%s\n", tr.Act, syntax.String(tr.Target), syntax.Key(tr.Target))
		}
		h.Write([]byte("\x1e\n"))
		ntrans += len(ts)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != stepsOutputHash {
		t.Errorf("Steps over %d terms (%d transitions) hashes to %s, want %s", len(terms), ntrans, got, stepsOutputHash)
	}
}

// TestSimplifyKeyAllocs pins what term identity allocates for a term that
// is already simplified, as the unchanged operands of every interned
// transition target are. Simplify returns mesh-12 as it is, allocating at
// most 32 objects (1 with Go 1.24, the operand list of its 12-component
// composition; 209 when it rebuilt every node), and Key allocates only its
// result (7 when it grew a strings.Builder).
func TestSimplifyKeyAllocs(t *testing.T) {
	p := syntax.Simplify(stress.GoldenMesh().P)
	var q syntax.Proc
	if n := testing.AllocsPerRun(100, func() { q = syntax.Simplify(p) }); n > 32 {
		t.Errorf("Simplify of a simplified mesh-12 allocated %.0f objects, want at most 32", n)
	}
	if !syntax.Equal(q, p) {
		t.Fatalf("Simplify is not idempotent on mesh-12: %s", syntax.String(q))
	}
	// Under the race detector sync.Pool drops a quarter of the writers put
	// back, so a Key sometimes pays for a new writer.
	if n := testing.AllocsPerRun(100, func() { syntax.Key(p) }); n != 1 && !raceEnabled {
		t.Errorf("Key of mesh-12 allocated %.0f objects, want 1", n)
	}
}

// TestKeyWritersShared keys, simplifies, derives and dedupes the
// transitions of the same corpus terms from 8 goroutines at once, 100
// times each, against one goroutine's results: a pooled key writer,
// derivation buffer or dedupe scratch that leaked bytes, transitions or
// binders from one call into another would change a key, a target or the
// order of a list.
func TestKeyWritersShared(t *testing.T) {
	corpus := refCorpus(t)
	sys := semantics.NewSystem(nil)
	type want struct {
		p      syntax.Proc
		key    string
		simple syntax.Proc
		trans  []semantics.Trans
		tkeys  []string
		err    bool
	}
	var ws []want
	for i := 0; i < len(corpus); i += len(corpus) / 64 {
		p := corpus[i]
		w := want{p: p, key: syntax.Key(p), simple: syntax.Simplify(p)}
		ts, err := sys.Steps(p)
		w.trans, w.err = ts, err != nil
		for _, tr := range ts {
			w.tkeys = append(w.tkeys, semantics.TransKey(tr))
		}
		ws = append(ws, w)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				for _, w := range ws {
					if k := syntax.Key(w.p); k != w.key {
						t.Errorf("Key(%s) = %q, want %q", syntax.String(w.p), k, w.key)
						return
					}
					if s := syntax.Simplify(w.p); !syntax.Equal(s, w.simple) {
						t.Errorf("Simplify(%s) = %s, want %s", syntax.String(w.p), syntax.String(s), syntax.String(w.simple))
						return
					}
					for i, tr := range w.trans {
						if k := semantics.TransKey(tr); k != w.tkeys[i] {
							t.Errorf("TransKey(%s) = %q, want %q", tr, k, w.tkeys[i])
							return
						}
					}
					ts, err := sys.Steps(w.p)
					if (err != nil) != w.err || len(ts) != len(w.trans) {
						t.Errorf("Steps(%s): %d transitions, err %v; want %d", syntax.String(w.p), len(ts), err, len(w.trans))
						return
					}
					for i, tr := range ts {
						if tr.Act.String() != w.trans[i].Act.String() || !syntax.Equal(tr.Target, w.trans[i].Target) {
							t.Errorf("Steps(%s)[%d] = %s, want %s", syntax.String(w.p), i, tr, w.trans[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
