package workload

import (
	"fmt"
	"os"
	"testing"

	"engage/internal/config"
	"engage/internal/constraint"
	"engage/internal/typecheck"
)

// The property test: every spec.Full returned by Configure on a
// generator-produced partial passes typecheck.CheckSpec — no pending
// dependencies, every input port fed exactly once, acyclic ≤i ∪ ≤e ∪ ≤p.
// 100 seeds by default, 1000 when ENGAGE_SOAK is set. The encoding
// rotates across seeds so both exactly-one encodings are exercised.
func TestConfigurePropertyCheckSpec(t *testing.T) {
	seeds := 100
	if os.Getenv("ENGAGE_SOAK") != "" {
		seeds = 1000
	}
	encodings := []constraint.Encoding{constraint.Pairwise, constraint.Ladder}

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			// Vary the fleet shape with the seed, deterministically.
			shape := Spec{
				Seed:       int64(seed),
				Families:   3 + seed%7,
				Versions:   1 + seed%4,
				EnvFanout:  1 + seed%3,
				PeerFanout: seed % 2,
				Machines:   1 + seed%5,
				Instances:  1 + seed%3,
			}
			reg, partial, err := Generate(shape)
			if err != nil {
				t.Fatalf("Generate(%v): %v", shape, err)
			}

			eng := config.New(reg)
			eng.Encoding = encodings[seed%len(encodings)]
			full, err := eng.Configure(partial)
			if err != nil {
				t.Fatalf("Configure(%v): %v", shape, err)
			}
			if len(full.Instances) < len(partial.Instances) {
				t.Fatalf("full spec has %d instances, fewer than the %d partial instances",
					len(full.Instances), len(partial.Instances))
			}
			// Configure already runs CheckSpec, but the property is
			// about the returned value: re-check it independently.
			if err := typecheck.CheckSpec(reg, full); err != nil {
				t.Fatalf("CheckSpec on Configure output (%v): %v", shape, err)
			}
		})
	}
}
