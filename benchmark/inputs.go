package main

// The benchmark's inputs, made from the seed alone, and the digests that
// pin them. The fleet workload's inputs come from internal/workload; the
// serve workloads' request bodies are fixed stacks of the bundled
// library plus seeded draws made in serve.go.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"engage/internal/rdl"
	"engage/internal/resource"
	"engage/internal/spec"
	"engage/internal/workload"
)

// fleetShape is the operator-scale fleet: 254 instances and 758 graph
// nodes at workload seed 1.
var fleetShape = workload.Spec{Families: 20, Versions: 4, EnvFanout: 3, PeerFanout: 1, Machines: 16, Instances: 5}

// ladderShapes are the three fleet sizes hypergraph.slope is fitted
// across; the middle one is fleetShape.
var ladderShapes = []workload.Spec{
	{Families: 12, Versions: 3, EnvFanout: 2, PeerFanout: 1, Machines: 8, Instances: 4},
	fleetShape,
	{Families: 28, Versions: 5, EnvFanout: 3, PeerFanout: 2, Machines: 24, Instances: 6},
}

// fleetsPerRun is how many distinct fleets one fleet run cycles
// through. GraphGen's work differs from fleet to fleet by up to ±25%,
// so a run pools many fleets: with one fleet per run the run-to-run
// spread would measure the seed, not the program.
const fleetsPerRun = 16

// fleetSeed is the workload seed of fleet k of a run. Runs with
// different seeds use disjoint fleets.
func fleetSeed(seed int64, k int) int64 { return seed*fleetsPerRun + int64(k) }

// fleetInput is one generated fleet.
type fleetInput struct {
	seed    int64
	reg     *resource.Registry
	partial *spec.Partial
}

func makeFleets(seed int64) ([]fleetInput, error) {
	out := make([]fleetInput, fleetsPerRun)
	for k := range out {
		s := fleetShape
		s.Seed = fleetSeed(seed, k)
		reg, partial, err := workload.Generate(s)
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %v", k, err)
		}
		out[k] = fleetInput{seed: s.Seed, reg: reg, partial: partial}
	}
	return out, nil
}

// fleetDigest hashes what the fleet workload feeds the program: each
// fleet's library in RDL text and its partial specification in JSON.
func fleetDigest(fleets []fleetInput) (string, error) {
	h := sha256.New()
	for _, f := range fleets {
		p, err := json.Marshal(f.partial)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "fleet %d\n%s\n%s\n", f.seed, rdl.FormatRegistry(f.reg), p)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stackPartial is a three-tier Java stack of the bundled library: a
// server, Tomcat inside it and an application inside Tomcat. Tomcat's
// Java dependency is abstract (JDK or JRE), so a cold solve searches. A
// hostname, when given, makes the partial unlike any other.
func stackPartial(server, tomcat resource.Key, appID string, app resource.Key, hostname string) *spec.Partial {
	p := &spec.Partial{}
	s := p.Add("server", server)
	if hostname != "" {
		s.Set("hostname", resource.Str(hostname))
	}
	p.Add("tomcat", tomcat).In("server")
	p.Add(appID, app).In("tomcat")
	return p
}

var (
	tomcat5  = resource.MakeKey("Tomcat", "5.5")
	tomcat6  = resource.MakeKey("Tomcat", "6.0.18")
	tomcat7  = resource.MakeKey("Tomcat", "7.0")
	openmrs  = resource.MakeKey("OpenMRS", "1.8")
	jasper   = resource.MakeKey("JasperReports", "4.5")
	ubuntu12 = resource.MakeKey("Ubuntu", "12.04")
)

// configureStacks are the three TestServeLoad stacks, in cycling order.
func configureStacks(hostname string) []*spec.Partial {
	return []*spec.Partial{
		stackPartial(resource.MakeKey("Mac-OSX", "10.6"), tomcat6, "openmrs", openmrs, hostname),
		stackPartial(ubuntu12, tomcat6, "jasper", jasper, hostname),
		stackPartial(resource.MakeKey("Ubuntu", "10.04"), tomcat5, "openmrs", openmrs, hostname),
	}
}

// unsatStack pins both Java runtimes beside one Tomcat, whose Java
// dependency is exactly-one: the minimal core is the two pins, the
// Tomcat pin and that edge.
func unsatStack() *spec.Partial {
	p := configureStacks("")[1]
	p.Add("jdk", resource.MakeKey("JDK", "1.6")).In("server")
	p.Add("jre", resource.MakeKey("JRE", "1.6")).In("server")
	return p
}

// applyStacks are the two partials stack applies alternate between, so
// every apply after a stack's first is an upgrade.
func applyStacks() []*spec.Partial {
	return []*spec.Partial{
		stackPartial(ubuntu12, tomcat6, "jasper", jasper, ""),
		stackPartial(ubuntu12, tomcat7, "jasper", jasper, ""),
	}
}

// stackNames are the stacks applies write to, round-robin.
const stackNames = 8

// serveBodies are the request bodies of the serve workloads, marshaled
// once. Cold bodies are made per request from configureStacks with a
// unique hostname.
type serveBodies struct {
	configure [][]byte
	unsat     []byte
	apply     [][]byte
}

func body(p *spec.Partial) []byte {
	b, err := json.Marshal(map[string]any{"partial": p})
	if err != nil {
		panic(err)
	}
	return b
}

func makeServeBodies() serveBodies {
	var sb serveBodies
	for _, s := range configureStacks("") {
		sb.configure = append(sb.configure, body(s))
	}
	sb.unsat = body(unsatStack())
	for _, s := range applyStacks() {
		sb.apply = append(sb.apply, body(s))
	}
	return sb
}

// coldBody is configure stack i with a hostname no other request uses.
func coldBody(i int, hostname string) []byte {
	return body(configureStacks(hostname)[i])
}

// digest hashes the fixed body set and the cold-body template.
func (sb serveBodies) digest() string {
	h := sha256.New()
	for _, b := range sb.configure {
		fmt.Fprintf(h, "configure %s\n", b)
	}
	fmt.Fprintf(h, "unsat %s\n", sb.unsat)
	for _, b := range sb.apply {
		fmt.Fprintf(h, "apply %s\n", b)
	}
	fmt.Fprintf(h, "cold %s\n", coldBody(0, "host-template"))
	return hex.EncodeToString(h.Sum(nil))
}

// pins is benchmark/pins.json: input digests and the known answers the
// runs check against. Fleet entries are per seed; serve answers do not
// depend on the seed.
type pinsFile struct {
	Fleet map[string]fleetPins `json:"fleet"`
	Serve servePins            `json:"serve"`
}

type fleetPins struct {
	SHA256    string `json:"sha256"`
	Instances []int  `json:"instances"`
}

type servePins struct {
	SHA256             string   `json:"sha256"`
	ConfigureInstances []int    `json:"configure_instances"`
	DeployVirtualNs    []int64  `json:"deploy_virtual_ns"`
	UnsatCore          []string `json:"unsat_core"`
	ApplyInstances     []int    `json:"apply_instances"`
}

func pinsPath(root string) string { return filepath.Join(root, "benchmark", "pins.json") }

func readPins(root string) (*pinsFile, error) {
	data, err := os.ReadFile(pinsPath(root))
	if err != nil {
		return nil, err
	}
	var p pinsFile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %v", pinsPath(root), err)
	}
	return &p, nil
}

func writePins(root string, p *pinsFile) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath(root), append(data, '\n'), 0o644)
}
