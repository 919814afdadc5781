package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapture runs the CLI with stdout captured to a file.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const cliRDL = `
abstract resource "Server" {}
resource "Box 1" extends "Server" {}
resource "Svc 1" {
    inside "Server"
    config { port: tcp_port = 9000 }
    output { svc: struct { port: tcp_port } = { port: config.port } }
}
resource "App 1" {
    inside "Server"
    input { svc: struct { port: tcp_port } }
    peer "Svc 1" { svc -> svc }
}`

const cliPartial = `[
  {"id": "box", "key": "Box 1"},
  {"id": "app", "key": "App 1", "inside": {"id": "box"}}
]`

// fig2Partial for the bundled library.
const cliLibPartial = `[
  {"id": "server", "key": "Mac-OSX 10.6"},
  {"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "server"}},
  {"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}}
]`

func TestCmdCheck(t *testing.T) {
	rdlFile := writeFile(t, "stack.rdl", cliRDL)
	out, err := runCapture(t, "check", rdlFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 resource types are well-formed") {
		t.Errorf("check output: %s", out)
	}
	if !strings.Contains(out, "abstract") || !strings.Contains(out, "concrete") {
		t.Errorf("check should list kinds: %s", out)
	}
}

func TestCmdCheckBad(t *testing.T) {
	rdlFile := writeFile(t, "bad.rdl", `resource "A 1" { inside "Ghost" }`)
	if _, err := runCapture(t, "check", rdlFile); err == nil {
		t.Error("bad RDL should fail check")
	}
	if _, err := runCapture(t, "check"); err == nil {
		t.Error("check without files should fail")
	}
	if _, err := runCapture(t, "check", "/nonexistent.rdl"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestCmdSolve(t *testing.T) {
	rdlFile := writeFile(t, "stack.rdl", cliRDL)
	partial := writeFile(t, "p.json", cliPartial)
	out, err := runCapture(t, "solve", "-rdl", rdlFile, "-partial", partial)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"Svc 1"`) {
		t.Errorf("solution should include the derived Svc instance: %s", out)
	}
	if !strings.Contains(out, "// full:") || !strings.Contains(out, "3 instances") {
		t.Errorf("stats footer wrong: %s", out)
	}
}

func TestCmdSolveLibrary(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "solve", "-partial", partial, "-solver", "dpll", "-encoding", "ladder")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MySQL 5.1") {
		t.Errorf("library solve should derive MySQL: %s", out)
	}
}

func TestCmdSolveErrors(t *testing.T) {
	if _, err := runCapture(t, "solve"); err == nil {
		t.Error("missing -partial should fail")
	}
	partial := writeFile(t, "p.json", cliLibPartial)
	if _, err := runCapture(t, "solve", "-partial", partial, "-solver", "z3"); err == nil {
		t.Error("unknown solver should fail")
	}
	if _, err := runCapture(t, "solve", "-partial", partial, "-encoding", "magic"); err == nil {
		t.Error("unknown encoding should fail")
	}
	badJSON := writeFile(t, "bad.json", "{")
	if _, err := runCapture(t, "solve", "-partial", badJSON); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestCmdExplain(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "explain", "-partial", partial)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hypergraph nodes:", "hyperedges:", "p cnf", "--environment-->"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdExplainDot(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "explain", "-partial", partial, "-dot")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph engage", "peripheries=2", "style=dashed", "shape=point"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestCmdDeploy(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "deploy", "-partial", partial)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deployed 5 instances") {
		t.Errorf("deploy output: %s", out)
	}
	if !strings.Contains(out, "active") {
		t.Errorf("status missing: %s", out)
	}
}

func TestCmdDeployParallelMultihost(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "deploy", "-partial", partial, "-parallel", "-multihost")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "across machines") {
		t.Errorf("multihost output: %s", out)
	}
}

func TestCmdAlternatives(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "alternatives", "-partial", partial)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 alternative full installation specification(s)") {
		t.Errorf("alternatives output: %s", out)
	}
	if !strings.Contains(out, "JDK 1.6") || !strings.Contains(out, "JRE 1.6") {
		t.Errorf("both Java choices should appear: %s", out)
	}
}

func TestCmdFmt(t *testing.T) {
	rdlFile := writeFile(t, "stack.rdl", cliRDL)
	out, err := runCapture(t, "fmt", rdlFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `resource "App 1"`) || !strings.Contains(out, "svc -> svc") {
		t.Errorf("fmt output: %s", out)
	}
	if _, err := runCapture(t, "fmt"); err == nil {
		t.Error("fmt without files should fail")
	}
}

func TestCmdDemo(t *testing.T) {
	out, err := runCapture(t, "demo")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"partial installation specification", "configuration engine", "deployed in", "mysql"} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
}

func TestCmdUnknownAndHelp(t *testing.T) {
	if _, err := runCapture(t, "bogus"); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if _, err := runCapture(t); err == nil {
		t.Error("no subcommand should fail")
	}
	out, err := runCapture(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "usage: engage") {
		t.Errorf("help output: %s", out)
	}
}

func TestCmdSolveMinimal(t *testing.T) {
	partial := writeFile(t, "p.json", cliLibPartial)
	out, err := runCapture(t, "solve", "-partial", partial, "-minimal")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "5 instances") {
		t.Errorf("minimal solve output: %s", out)
	}
}

// A state-file writer that fails mid-flush must leave the old file
// byte-identical and no temporary file behind; a writer that succeeds
// replaces the file and keeps its mode.
func TestWriteFileAtomic(t *testing.T) {
	path := writeFile(t, "state.json", `{"seq":7,"records":[]}`+"\n")
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flushErr := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"seq":8,"rec`); err != nil {
			return err
		}
		return flushErr
	})
	if !errors.Is(err, flushErr) {
		t.Fatalf("writeFileAtomic error = %v, want %v", err, flushErr)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old state file not preserved after a failed flush: %q, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed flush left %d files in the directory, want only the state file", len(entries))
	}

	want := `{"seq":8,"records":[]}` + "\n"
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != want {
		t.Fatalf("state file after a good flush = %q, %v; want %q", got, err, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("state file mode after a good flush = %v, want 0600", fi.Mode().Perm())
	}
}
