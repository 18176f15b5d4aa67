package oracle

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bpi/internal/parser"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// Config controls a fuzz run.
type Config struct {
	// Seed is the run seed. Iteration i draws everything from
	// mix(Seed + i), so iteration i of any run reproduces alone as
	// iteration 0 of a run with Seed+i and Budget len(Laws).
	Seed int64
	// Budget is the total number of iterations across all laws (default
	// 1000). Iterations round-robin the law list.
	Budget int
	// Laws is the registry subset to exercise (default Registry()).
	Laws []Law
	// OutDir, when non-empty, receives one regression file per shrunk
	// counterexample (see WriteCase for the format).
	OutDir string
	// ShrinkBudget bounds predicate evaluations per shrink (default 4096).
	ShrinkBudget int
	// MaxViolations stops the run early once reached (default 10).
	MaxViolations int
	// Progress, when set, is called after every iteration.
	Progress func(done, total int, v *Violation)
}

// Violation is one shrunk law violation.
type Violation struct {
	Law  string
	Tag  string
	Iter int
	// ReproSeed replays this iteration alone:
	//   bpifuzz -laws <Law> -seed <ReproSeed> -budget 1
	ReproSeed int64
	P, Q      string // shrunk terms, printed
	OrigP     string // pre-shrink terms, printed
	OrigQ     string
	Detail    string
	ShrinkOps int
}

func (v Violation) String() string {
	return fmt.Sprintf("law %s [%s]: %s\n  p = %s\n  q = %s\n  reproduce: bpifuzz -laws %s -seed %d -budget 1",
		v.Law, v.Tag, v.Detail, v.P, v.Q, v.Law, v.ReproSeed)
}

// Report summarises a fuzz run.
type Report struct {
	Seed       int64
	Ran        int
	PerLaw     map[string]int
	Errors     map[string]int // engine errors (budgets, timeouts) per law
	Violations []Violation
}

// mix is splitmix64: decorrelates consecutive iteration seeds so that
// iteration i's term stream shares nothing with iteration i+1's.
func mix(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run executes the fuzz loop: per iteration it derives a fresh seeded
// generator, draws a pair for the scheduled law, checks the law, and on
// violation shrinks the pair (re-checking the same law as predicate) before
// recording it. Engine errors are tallied, never treated as violations.
func Run(ctx context.Context, env *Env, cfg Config) (*Report, error) {
	laws := cfg.Laws
	if len(laws) == 0 {
		laws = Registry()
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 1000
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 10
	}
	rep := &Report{Seed: cfg.Seed, PerLaw: map[string]int{}, Errors: map[string]int{}}
	for i := 0; i < cfg.Budget; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		law := laws[i%len(laws)]
		iterSeed := cfg.Seed + int64(i)
		g := brand.New(mix(iterSeed), law.Config)
		p, q, tag := law.Gen(g)
		rep.Ran++
		rep.PerLaw[law.Name]++
		detail, err := law.Check(ctx, env, p, q)
		if err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			rep.Errors[law.Name]++
			continue
		}
		var v *Violation
		if detail != "" {
			v = shrinkViolation(ctx, env, law, p, q, detail, tag, i, iterSeed, cfg.ShrinkBudget)
			rep.Violations = append(rep.Violations, *v)
			if cfg.OutDir != "" {
				if werr := WriteCase(cfg.OutDir, *v); werr != nil {
					return rep, werr
				}
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, cfg.Budget, v)
		}
		if len(rep.Violations) >= cfg.MaxViolations {
			break
		}
	}
	return rep, nil
}

func shrinkViolation(ctx context.Context, env *Env, law Law, p, q syntax.Proc,
	detail, tag string, iter int, iterSeed int64, shrinkBudget int) *Violation {
	lastDetail := detail
	pred := func(cp, cq syntax.Proc) bool {
		d, err := law.Check(ctx, env, cp, cq)
		if err != nil || d == "" {
			return false
		}
		lastDetail = d
		return true
	}
	sp, sq, ops := ShrinkPair(p, q, pred, shrinkBudget)
	return &Violation{
		Law:       law.Name,
		Tag:       tag,
		Iter:      iter,
		ReproSeed: iterSeed,
		P:         syntax.String(sp),
		Q:         syntax.String(sq),
		OrigP:     syntax.String(p),
		OrigQ:     syntax.String(q),
		Detail:    lastDetail,
		ShrinkOps: ops,
	}
}

// ---- Regression-case persistence -----------------------------------------
//
// A case file is line-oriented:
//
//	# bpifuzz counterexample (any number of # comment lines)
//	law: theorem1/strong
//	seed: 12345
//	p: a! + 0
//	q: tau.a!
//
// Files live under testdata/fuzz/ and are re-checked by the oracle
// regression test on every `go test` run.

// Case is one persisted regression case.
type Case struct {
	Law  string
	Seed int64
	P, Q string
	File string
}

// WriteCase persists a shrunk violation under dir, named after the law and
// repro seed (stable: rerunning the same violation overwrites its file).
func WriteCase(dir string, v Violation) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_seed%d.case", strings.ReplaceAll(v.Law, "/", "_"), v.ReproSeed)
	body := fmt.Sprintf("# bpifuzz counterexample\n# detail: %s\n# original p: %s\n# original q: %s\nlaw: %s\nseed: %d\np: %s\nq: %s\n",
		v.Detail, v.OrigP, v.OrigQ, v.Law, v.ReproSeed, v.P, v.Q)
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

// LoadCases reads every *.case file under dir (missing dir is an empty
// corpus, not an error).
func LoadCases(dir string) ([]Case, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []Case
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".case") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		c := Case{File: path}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			switch {
			case line == "" || strings.HasPrefix(line, "#"):
			case strings.HasPrefix(line, "law:"):
				c.Law = strings.TrimSpace(strings.TrimPrefix(line, "law:"))
			case strings.HasPrefix(line, "seed:"):
				fmt.Sscanf(strings.TrimPrefix(line, "seed:"), "%d", &c.Seed)
			case strings.HasPrefix(line, "p:"):
				c.P = strings.TrimSpace(strings.TrimPrefix(line, "p:"))
			case strings.HasPrefix(line, "q:"):
				c.Q = strings.TrimSpace(strings.TrimPrefix(line, "q:"))
			}
		}
		if c.Law == "" || c.P == "" || c.Q == "" {
			return nil, fmt.Errorf("oracle: malformed case file %s", path)
		}
		out = append(out, c)
	}
	return out, nil
}

// CheckCase re-runs the case's law on its persisted pair. A healthy tree
// returns detail == "": the case was a bug once, is a regression guard now.
// laws may extend/override the registry (nil means Registry()); the case's
// law is looked up by name in it.
func CheckCase(ctx context.Context, env *Env, laws []Law, c Case) (string, error) {
	if len(laws) == 0 {
		laws = Registry()
	}
	var law *Law
	for i := range laws {
		if laws[i].Name == c.Law {
			law = &laws[i]
			break
		}
	}
	if law == nil {
		return "", fmt.Errorf("%s: unknown law %q", c.File, c.Law)
	}
	p, err := parser.Parse(c.P)
	if err != nil {
		return "", fmt.Errorf("%s: parse p: %w", c.File, err)
	}
	q, err := parser.Parse(c.Q)
	if err != nil {
		return "", fmt.Errorf("%s: parse q: %w", c.File, err)
	}
	return law.Check(ctx, env, p, q)
}
