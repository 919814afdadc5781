// Command engage-bench is Engage's benchmark. It runs one workload with
// a seed for a fixed time and prints, as its last line, one JSON object
// with the run's correctness, op counts and metrics. See
// benchmark/README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
//
//	bash benchmark/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the traced probe of layers.go and reports the
// per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"engage/internal/config"
)

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// metric names and units it must report.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runEnv is what every workload runner gets.
type runEnv struct {
	root     string // checkout root
	workload string
	seed     int64
	window   time.Duration
	engage   string // path of the built engage binary
	outDir   string // where run records and traces go
	pins     *pinsFile
	record   bool // write answers and digests into pins.json
}

// result is a run's outcome before printing.
type result struct {
	attempted, failed int
	errors            []string // first few failures, for stderr
	metrics           map[string]float64
	// invalid names why a serve run measured the client rather than
	// the server; the numbers are then not comparable.
	invalid []string
	notes   map[string]any // findings and health figures for the run record
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errors) < 5 {
		r.errors = append(r.errors, err.Error())
	}
}

func (r *result) note(k string, v any) {
	if r.notes == nil {
		r.notes = map[string]any{}
	}
	r.notes[k] = v
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "engage-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "a workload of BENCHMARK.json: fleet, serve-warm or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement window per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer probe instead of the end-to-end run")
	root := flag.String("root", ".", "checkout root")
	engage := flag.String("engage", "", "engage binary (built by run.sh)")
	outDir := flag.String("out", ".bench_build/runs", "directory for run records and traces")
	record := flag.Bool("record", false, "record this seed's digests and answers into benchmark/pins.json")
	flag.Parse()

	bf, err := readBenchmarkFile(*root)
	if err != nil {
		return err
	}
	known := false
	for _, w := range bf.Workloads {
		known = known || w.Name == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *trace)
	}
	pins, err := readPins(*root)
	if errors.Is(err, os.ErrNotExist) && *record {
		pins, err = &pinsFile{}, nil
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	env := &runEnv{
		root: *root, workload: *workload, seed: *seed,
		window: time.Duration(*seconds) * time.Second,
		engage: *engage, outDir: *outDir, pins: pins, record: *record,
	}

	var res *result
	switch {
	case *trace == 1:
		res, err = runTraced(env)
	case *workload == "fleet":
		res, err = runFleet(env)
	case *workload == "serve-warm":
		res, err = runServe(env, warmTraffic)
	case *workload == "serve-mixed":
		res, err = runServe(env, mixedTraffic)
	default:
		return fmt.Errorf("no runner for workload %q", *workload)
	}
	if err != nil {
		return err
	}
	if *record {
		if err := writePins(*root, pins); err != nil {
			return err
		}
	}
	defs := bf.EndToEnd
	if *trace == 1 {
		defs = bf.PerLayer
	}
	return report(env, *trace == 1, defs, res)
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &bf, nil
}

// report prints the run: the host stamp and findings as comment lines,
// then the result object as the last line. It writes the same record to
// the run directory.
func report(env *runEnv, traced bool, defs []metricDef, res *result) error {
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("run did not measure %s", d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	var extra []string
	for name := range res.metrics {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("run measured metrics BENCHMARK.json does not name: %s", strings.Join(extra, ", "))
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "engage-bench: failed op:", e)
	}
	for _, why := range res.invalid {
		fmt.Fprintln(os.Stderr, "engage-bench: run invalid:", why)
	}

	stamp := hostStamp()
	stamp["workload"] = env.workload
	stamp["seed"] = env.seed
	stamp["seconds"] = env.window.Seconds()
	stamp["traced"] = traced
	stamp["valid"] = len(res.invalid) == 0
	if len(res.invalid) > 0 {
		stamp["invalid"] = res.invalid
	}
	line := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}
	record := map[string]any{"host": stamp, "result": line, "notes": res.notes}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", env.workload, env.seed, map[bool]int{false: 0, true: 1}[traced])
	if err := os.WriteFile(filepath.Join(env.outDir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}

	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	for _, d := range defs {
		fmt.Printf("# %-32s %14.6g %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	for _, k := range sortedKeys(res.notes) {
		v, _ := json.Marshal(res.notes[k])
		fmt.Printf("# %s: %s\n", k, v)
	}
	s, _ := json.Marshal(stamp)
	fmt.Printf("# host: %s\n", s)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostStamp fingerprints the machine and the code a result came from.
func hostStamp() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("ENGAGE_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() (time.Duration, error) { return procCPU("self") }

func procCPU(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

func procStatusKB(pid, field string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseProcStatusKB(string(data), field)
}

// fleetAnswers returns the recorded instance count of each fleet of the
// run. For a seed in pins.json the inputs must hash to the recorded
// digest. For another seed the counts start unknown (zero) and the
// first op of each fleet sets them; recording configures each fleet
// once and stores the counts.
func (env *runEnv) fleetAnswers(fleets []fleetInput) ([]int, error) {
	sum, err := fleetDigest(fleets)
	if err != nil {
		return nil, err
	}
	key := strconv.FormatInt(env.seed, 10)
	if p, ok := env.pins.Fleet[key]; ok && !env.record {
		if p.SHA256 != sum {
			return nil, fmt.Errorf("fleet inputs for seed %d changed: sha256 %s, pinned %s", env.seed, sum, p.SHA256)
		}
		if len(p.Instances) != len(fleets) {
			return nil, fmt.Errorf("pins.json records %d fleets for seed %d, the run has %d", len(p.Instances), env.seed, len(fleets))
		}
		return append([]int(nil), p.Instances...), nil
	}
	want := make([]int, len(fleets))
	if !env.record {
		return want, nil
	}
	for k, f := range fleets {
		full, err := config.New(f.reg).Configure(f.partial)
		if err != nil {
			return nil, fmt.Errorf("configure fleet %d: %v", f.seed, err)
		}
		want[k] = len(full.Instances)
	}
	if env.pins.Fleet == nil {
		env.pins.Fleet = map[string]fleetPins{}
	}
	env.pins.Fleet[key] = fleetPins{SHA256: sum, Instances: want}
	return want, nil
}
