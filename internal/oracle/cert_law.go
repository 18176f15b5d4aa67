package oracle

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bpi/internal/axioms"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/syntax"
)

// CertArtifactDirEnv, when set, names a directory that receives the JSON of
// any certificate the cert/checks law rejects — CI uploads it as a build
// artifact so the offending proof object survives the run.
const CertArtifactDirEnv = "BPIFUZZ_CERT_DIR"

// lawCertChecks is the certificate law: every verdict the engines return
// must come with a proof object the deliberately-simple independent verifier
// accepts — on a fresh store AND again on the same, now warm, store (whose
// memoised derivations must not change the evidence), for all five
// equivalences and the §5 prover. A verdict whose certificate does not replay is wrong evidence
// even when the verdict itself happens to be right, so this law fires on
// the rejection, not on the verdict.
func lawCertChecks() Law {
	return Law{
		Name:   "cert/checks",
		Doc:    "every fuzzed verdict (five relations, fresh and on a warm store, plus axioms.Decide) carries a certificate the independent verifier accepts, and certified ~c agrees with axioms.Decide",
		Config: proverConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			ch := equiv.NewChecker(nil)
			ch.Certify = true
			check := func(name string, related bool, crt *cert.Certificate) string {
				if crt == nil {
					return name + ": verdict carries no certificate"
				}
				if crt.Related != related {
					return fmt.Sprintf("%s: verdict %v but certificate claims %v", name, related, crt.Related)
				}
				if verr := cert.Verify(crt); verr != nil {
					return certRejected(name, crt, verr)
				}
				return ""
			}
			// Two passes over the same checker: pass two decides every
			// query again on the store pass one warmed.
			var congruent bool
			for _, pass := range []string{"fresh", "warm-store"} {
				for _, cq := range certQueries {
					r, err := ch.Decide(ctx, equiv.Query{Rel: cq.rel, Weak: cq.weak, P: p, Q: q})
					if err != nil {
						return "", err
					}
					mode := "strong"
					if cq.weak {
						mode = "weak"
					}
					if d := check(pass+" "+mode+" "+cq.rel, r.Related, r.Cert); d != "" {
						return d, nil
					}
					if cq.rel == cert.RelCongruence {
						congruent = r.Related
					}
				}
			}
			pr := axioms.NewProver(nil)
			pr.Certify = true
			proved, err := pr.DecideCtx(ctx, p, q)
			if err != nil {
				return "", err
			}
			if d := check("axioms decide", proved, pr.Certificate()); d != "" {
				return d, nil
			}
			// Theorems 6/7 on these finite terms, as axioms/decide-agree.
			if congruent != proved {
				return fmt.Sprintf("certified ~c says %v, axioms.Decide says %v", congruent, proved), nil
			}
			return "", nil
		},
	}
}

// certQueries are the (relation, mode) pairs the certificate law decides,
// in order: the three pair-engine relations strong then weak, then strong
// ~+ and ~c.
var certQueries = []struct {
	rel  string
	weak bool
}{
	{cert.RelLabelled, false}, {cert.RelBarbed, false}, {cert.RelStep, false},
	{cert.RelLabelled, true}, {cert.RelBarbed, true}, {cert.RelStep, true},
	{cert.RelOneStep, false}, {cert.RelCongruence, false},
}

// certRejected builds the violation detail for a rejected certificate and,
// when CertArtifactDirEnv is set, persists the offending JSON for artifact
// upload.
func certRejected(name string, crt *cert.Certificate, verr error) string {
	detail := fmt.Sprintf("%s: certificate rejected: %v", name, verr)
	dir := os.Getenv(CertArtifactDirEnv)
	if dir == "" {
		return detail
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return detail
	}
	data, err := crt.Marshal()
	if err != nil {
		return detail
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, strings.ToLower(name))
	path := filepath.Join(dir, "rejected-"+slug+".json")
	if os.WriteFile(path, data, 0o644) == nil {
		detail += " (certificate written to " + path + ")"
	}
	return detail
}
