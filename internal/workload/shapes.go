package workload

// FleetShape is a named fleet size shared by the scale benchmarks and
// the CI smoke steps, so "fleet570" means the same workload everywhere.
type FleetShape struct {
	Name string
	Spec Spec
	// Big marks fleets large enough that benchmarks skip them in
	// -short mode.
	Big bool
}

// FleetShapes returns the named fleet ladder in ascending size. Names
// state the approximate full-specification instance count. The big
// fleets reuse the same seeded family pool sizes as fleet570 — instance
// count scales through machines × instances per machine, so library
// generation time stays flat while the configured fleet grows.
func FleetShapes() []FleetShape {
	return []FleetShape{
		{Name: "fleet90", Spec: Spec{Seed: 1, Families: 12, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 8, Instances: 4}},
		{Name: "fleet250", Spec: Spec{Seed: 1, Families: 20, Versions: 4, EnvFanout: 3, PeerFanout: 1, Machines: 16, Instances: 5}},
		{Name: "fleet570", Spec: Spec{Seed: 1, Families: 28, Versions: 5, EnvFanout: 3, PeerFanout: 2, Machines: 24, Instances: 6}},
		{Name: "fleet2000", Spec: Spec{Seed: 1, Families: 28, Versions: 5, EnvFanout: 3, PeerFanout: 2, Machines: 85, Instances: 6}, Big: true},
		{Name: "fleet5000", Spec: Spec{Seed: 1, Families: 28, Versions: 5, EnvFanout: 3, PeerFanout: 2, Machines: 220, Instances: 6}, Big: true},
	}
}

// FleetShapeByName returns the named shape from FleetShapes.
func FleetShapeByName(name string) (FleetShape, bool) {
	for _, sh := range FleetShapes() {
		if sh.Name == name {
			return sh, true
		}
	}
	return FleetShape{}, false
}
