package sat

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func solvers() []Solver { return []Solver{NewCDCL(), NewDPLL()} }

func TestLitBasics(t *testing.T) {
	l := Lit(3)
	if l.Var() != 3 || l.Neg() != -3 || l.Neg().Var() != 3 {
		t.Error("Lit ops wrong")
	}
}

func TestTrivial(t *testing.T) {
	for _, s := range solvers() {
		f := NewFormula(1)
		f.AddUnit(1)
		r := s.Solve(f)
		if r.Status != Sat || !r.Model[1] {
			t.Errorf("%s: unit positive: %v", s.Name(), r)
		}

		f2 := NewFormula(1)
		f2.AddUnit(-1)
		r2 := s.Solve(f2)
		if r2.Status != Sat || r2.Model[1] {
			t.Errorf("%s: unit negative: %v", s.Name(), r2)
		}

		f3 := NewFormula(1)
		f3.AddUnit(1)
		f3.AddUnit(-1)
		if r3 := s.Solve(f3); r3.Status != Unsat {
			t.Errorf("%s: x ∧ ¬x should be UNSAT, got %v", s.Name(), r3.Status)
		}

		f4 := NewFormula(0)
		f4.Add() // empty clause
		if r4 := s.Solve(f4); r4.Status != Unsat {
			t.Errorf("%s: empty clause should be UNSAT", s.Name())
		}

		f5 := NewFormula(2) // empty formula: SAT
		if r5 := s.Solve(f5); r5.Status != Sat {
			t.Errorf("%s: empty formula should be SAT", s.Name())
		}
	}
}

func TestImplicationChain(t *testing.T) {
	for _, s := range solvers() {
		f := NewFormula(50)
		f.AddUnit(1)
		for i := 1; i < 50; i++ {
			f.AddImplies(Lit(i), Lit(i+1))
		}
		r := s.Solve(f)
		if r.Status != Sat {
			t.Fatalf("%s: chain should be SAT", s.Name())
		}
		for v := 1; v <= 50; v++ {
			if !r.Model[v] {
				t.Fatalf("%s: var %d should be true by propagation", s.Name(), v)
			}
		}
	}
}

func TestExactlyOne(t *testing.T) {
	for _, s := range solvers() {
		f := NewFormula(4)
		f.AddExactlyOne(1, 2, 3, 4)
		r := s.Solve(f)
		if r.Status != Sat {
			t.Fatalf("%s: exactly-one should be SAT", s.Name())
		}
		if n := len(TrueVars(r.Model)); n != 1 {
			t.Errorf("%s: exactly one var should be true, got %d", s.Name(), n)
		}
	}
}

func TestExactlyOneConflict(t *testing.T) {
	for _, s := range solvers() {
		f := NewFormula(2)
		f.AddExactlyOne(1, 2)
		f.AddUnit(1)
		f.AddUnit(2)
		if r := s.Solve(f); r.Status != Unsat {
			t.Errorf("%s: forcing two of an exactly-one should be UNSAT", s.Name())
		}
	}
}

func TestImpliesExactlyOne(t *testing.T) {
	// The paper's openmrs → ⊕{jdk, jre} constraint shape: guard false
	// means no obligation.
	for _, s := range solvers() {
		f := NewFormula(3)
		f.AddImpliesExactlyOne(1, 2, 3)
		f.AddUnit(-1)
		f.AddUnit(-2)
		f.AddUnit(-3)
		if r := s.Solve(f); r.Status != Sat {
			t.Errorf("%s: unguarded exactly-one should allow all-false", s.Name())
		}

		f2 := NewFormula(3)
		f2.AddImpliesExactlyOne(1, 2, 3)
		f2.AddUnit(1)
		r2 := s.Solve(f2)
		if r2.Status != Sat {
			t.Fatalf("%s: guarded exactly-one should be SAT", s.Name())
		}
		if r2.Model[2] == r2.Model[3] {
			t.Errorf("%s: exactly one of {2,3} must hold, model=%v", s.Name(), r2.Model)
		}
	}
}

func TestPaperSection2Constraints(t *testing.T) {
	// The exact constraint system from §2 of the paper:
	// vars: server=1 tomcat=2 openmrs=3 jdk=4 jre=5 mysql=6
	for _, s := range solvers() {
		f := NewFormula(6)
		f.AddUnit(1)                    // server from install spec
		f.AddUnit(2)                    // tomcat from install spec
		f.AddUnit(3)                    // openmrs from install spec
		f.AddImpliesExactlyOne(3, 4, 5) // openmrs → ⊕{jdk, jre}
		f.AddImpliesExactlyOne(2, 4, 5) // tomcat → ⊕{jdk, jre}
		f.AddImplies(3, 6)              // openmrs → mysql
		f.AddImplies(2, 1)              // tomcat → server (inside)
		f.AddImplies(3, 2)              // openmrs → tomcat (inside)
		f.AddImplies(6, 1)              // mysql → server (inside)
		f.AddImplies(4, 1)              // jdk → server (inside)
		f.AddImplies(5, 1)              // jre → server (inside)
		r := s.Solve(f)
		if r.Status != Sat {
			t.Fatalf("%s: §2 constraints should be SAT", s.Name())
		}
		m := r.Model
		if !m[1] || !m[2] || !m[3] || !m[6] {
			t.Errorf("%s: server, tomcat, openmrs, mysql must all be deployed: %v", s.Name(), m)
		}
		if m[4] == m[5] {
			t.Errorf("%s: exactly one of jdk/jre: %v", s.Name(), m)
		}
		if i := Verify(f, m); i >= 0 {
			t.Errorf("%s: model falsifies clause %d", s.Name(), i)
		}
	}
}

// pigeonhole(n) is unsatisfiable for n+1 pigeons into n holes — a
// classic hard family for resolution-based solvers; small instances
// exercise conflict analysis thoroughly.
func pigeonhole(n int) *Formula {
	varOf := func(p, h int) Lit { return Lit(p*n + h + 1) }
	f := NewFormula((n + 1) * n)
	for p := 0; p <= n; p++ {
		c := make([]Lit, n)
		for h := 0; h < n; h++ {
			c[h] = varOf(p, h)
		}
		f.Add(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.Add(varOf(p1, h).Neg(), varOf(p2, h).Neg())
			}
		}
	}
	return f
}

func TestPigeonholeUnsat(t *testing.T) {
	for _, s := range solvers() {
		for n := 2; n <= 5; n++ {
			if r := s.Solve(pigeonhole(n)); r.Status != Unsat {
				t.Errorf("%s: PHP(%d) should be UNSAT, got %v", s.Name(), n, r.Status)
			}
		}
	}
}

func TestPigeonholeLargerCDCL(t *testing.T) {
	if r := NewCDCL().Solve(pigeonhole(7)); r.Status != Unsat {
		t.Errorf("PHP(7) should be UNSAT, got %v", r.Status)
	}
}

// randomFormula builds a random 3-SAT instance with the given
// clause/variable ratio seedable for reproducibility.
func randomFormula(rng *rand.Rand, nVars, nClauses int) *Formula {
	f := NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		c := make([]Lit, 3)
		for j := range c {
			v := rng.Intn(nVars) + 1
			if rng.Intn(2) == 0 {
				c[j] = Lit(v)
			} else {
				c[j] = Lit(-v)
			}
		}
		f.Add(c...)
	}
	return f
}

func TestSolversAgreeOnRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cdcl, dpll := NewCDCL(), NewDPLL()
	for trial := 0; trial < 60; trial++ {
		nVars := 10 + rng.Intn(20)
		nClauses := int(float64(nVars) * (3.0 + rng.Float64()*2.0))
		f := randomFormula(rng, nVars, nClauses)
		r1 := cdcl.Solve(f)
		r2 := dpll.Solve(f)
		if r1.Status != r2.Status {
			t.Fatalf("trial %d: CDCL=%v DPLL=%v\n%s", trial, r1.Status, r2.Status, Dimacs(f))
		}
		if r1.Status == Sat {
			if i := Verify(f, r1.Model); i >= 0 {
				t.Fatalf("trial %d: CDCL model falsifies clause %d", trial, i)
			}
			if i := Verify(f, r2.Model); i >= 0 {
				t.Fatalf("trial %d: DPLL model falsifies clause %d", trial, i)
			}
		}
	}
}

func TestCDCLModelAlwaysVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewCDCL()
	for trial := 0; trial < 100; trial++ {
		nVars := 20 + rng.Intn(40)
		nClauses := int(float64(nVars) * 3.5)
		f := randomFormula(rng, nVars, nClauses)
		r := s.Solve(f)
		if r.Status == Sat {
			if i := Verify(f, r.Model); i >= 0 {
				t.Fatalf("trial %d: model falsifies clause %d\n%s", trial, i, Dimacs(f))
			}
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	for _, s := range solvers() {
		f := NewFormula(2)
		f.Add(1, -1)   // tautology
		f.Add(2, 2, 2) // duplicates
		f.AddUnit(-2)  // conflicts with above
		if r := s.Solve(f); r.Status != Unsat {
			t.Errorf("%s: want UNSAT, got %v", s.Name(), r.Status)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestDimacs(t *testing.T) {
	f := NewFormula(3)
	f.Add(1, -2)
	f.Add(3)
	d := Dimacs(f)
	if !strings.HasPrefix(d, "p cnf 3 2\n") {
		t.Errorf("Dimacs header wrong: %q", d)
	}
	if !strings.Contains(d, "1 -2 0\n") || !strings.Contains(d, "3 0\n") {
		t.Errorf("Dimacs clauses wrong: %q", d)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("status strings wrong")
	}
}

func TestDPLLMaxDecisions(t *testing.T) {
	d := &DPLL{MaxDecisions: 1}
	r := d.Solve(pigeonhole(6))
	if r.Status != Unknown {
		t.Errorf("bounded DPLL should give up with Unknown, got %v", r.Status)
	}
}

func TestVerifyDetectsBadModel(t *testing.T) {
	f := NewFormula(2)
	f.Add(1)
	f.Add(2)
	bad := []bool{false, true, false}
	if i := Verify(f, bad); i != 1 {
		t.Errorf("Verify should flag clause 1, got %d", i)
	}
}

// Property: for random small formulas, if CDCL reports SAT the model
// verifies; if it reports UNSAT, brute force agrees.
func TestCDCLAgainstBruteForce(t *testing.T) {
	brute := func(f *Formula) bool {
		n := f.NumVars
		for mask := 0; mask < 1<<n; mask++ {
			model := make([]bool, n+1)
			for v := 1; v <= n; v++ {
				model[v] = mask&(1<<(v-1)) != 0
			}
			if Verify(f, model) < 0 {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(99))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		nVars := 3 + r.Intn(6) // ≤ 8 vars: brute force is 256 models max
		nClauses := 2 + r.Intn(25)
		f := randomFormula(r, nVars, nClauses)
		res := NewCDCL().Solve(f)
		want := brute(f)
		if want != (res.Status == Sat) {
			return false
		}
		if res.Status == Sat && Verify(f, res.Model) >= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	r := NewCDCL().Solve(pigeonhole(5))
	if r.Stats.Conflicts == 0 || r.Stats.Decisions == 0 {
		t.Errorf("PHP(5) should record decisions and conflicts: %+v", r.Stats)
	}
}
