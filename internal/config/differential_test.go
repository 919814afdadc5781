package config_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/hypergraph"
	"engage/internal/sat"
	"engage/internal/spec"
	"engage/internal/workload"
)

// TestSessionSolveMatchesOneShot: every entry point solves on one
// incremental session. Over 100 seeded fleets (the shape of the
// GraphGen oracle sweep), every tenth also with a seeded version
// conflict, and both encodings, the engine's session solve must give
// the same status, model, decisions and conflicts as a one-shot
// sat.CDCL.Solve of the same encoding, and Configure and
// ConfigureSession must render byte-identical specifications.
func TestSessionSolveMatchesOneShot(t *testing.T) {
	type fleet struct {
		name  string
		shape workload.Spec
	}
	var fleets []fleet
	for seed := int64(0); seed < 100; seed++ {
		shape := workload.Spec{
			Seed: seed, Families: 8, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 3, Instances: 3,
		}
		fleets = append(fleets, fleet{fmt.Sprintf("seed%03d", seed), shape})
		if seed%10 == 0 {
			shape.Conflicts = 1
			fleets = append(fleets, fleet{fmt.Sprintf("seed%03d_conflict", seed), shape})
		}
	}
	for _, fl := range fleets {
		reg, partial, err := workload.Generate(fl.shape)
		if err != nil {
			t.Fatalf("%s: %v", fl.name, err)
		}
		for _, enc := range []constraint.Encoding{constraint.Pairwise, constraint.Ladder} {
			t.Run(fl.name+"/"+enc.String(), func(t *testing.T) {
				g, err := hypergraph.Generate(reg, partial)
				if err != nil {
					t.Fatal(err)
				}
				one := sat.NewCDCL().Solve(constraint.Encode(g, enc).Formula)

				e := config.New(reg)
				e.Encoding = enc
				full, sess, st, err := e.ConfigureSessionStats(partial)
				if fl.shape.Conflicts > 0 != (one.Status == sat.Unsat) {
					t.Fatalf("one-shot solve of a fleet with %d conflicts is %v", fl.shape.Conflicts, one.Status)
				}
				if one.Status == sat.Unsat {
					if !errors.As(err, new(config.UnsatError)) {
						t.Fatalf("one-shot solve is UNSAT, session path returned %v", err)
					}
					return
				}
				if one.Status != sat.Sat || err != nil {
					t.Fatalf("one-shot %v, session path error %v", one.Status, err)
				}
				if !reflect.DeepEqual(sess.Model, one.Model) {
					t.Fatalf("session model differs from the one-shot model:\n got %v\nwant %v",
						sat.TrueVars(sess.Model), sat.TrueVars(one.Model))
				}
				if st.Decisions != one.Stats.Decisions || st.Conflicts != one.Stats.Conflicts {
					t.Errorf("session decisions/conflicts %d/%d, one-shot %d/%d",
						st.Decisions, st.Conflicts, one.Stats.Decisions, one.Stats.Conflicts)
				}

				plain, err := e.Configure(partial)
				if err != nil {
					t.Fatal(err)
				}
				got, err := spec.Render(full)
				if err != nil {
					t.Fatal(err)
				}
				want, err := spec.Render(plain)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("ConfigureSession and Configure render different specifications")
				}
			})
		}
	}
}
