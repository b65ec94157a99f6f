package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "tab2", "-sizes", "8,16"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "mc-basic-ind") {
		t.Fatalf("output incomplete:\n%s", out)
	}
}

func TestAllExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sizes", "8,12"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 5", "Figure 1", "Figure 2", "Figure 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in output", want)
		}
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig2", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Figure 2") {
		t.Fatalf("file content wrong: %s", data)
	}
	if buf.Len() != 0 {
		t.Fatal("stdout should be empty when -o is used")
	}
}

func TestJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig2", "-format", "json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"id": "Figure 2"`) {
		t.Fatalf("json output wrong:\n%s", buf.String())
	}
}

func TestBenchJSONFile(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "tab2", "-sizes", "8", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("BENCH files: %v (err %v), want exactly 1", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"wall_ms"`, `"id": "Table 2"`, `"timestamp"`, "mc-basic-ind"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench file missing %q:\n%s", want, data)
		}
	}
	if !strings.Contains(buf.String(), "wrote ") {
		t.Errorf("run did not announce the bench file: %q", buf.String())
	}
}

func TestFig3DOT(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig3-dot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig3_hierarchy") {
		t.Fatalf("dot output wrong:\n%s", buf.String())
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "nosuch"}, &buf); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-sizes", "abc"}, &buf); err == nil {
		t.Error("bad sizes should fail")
	}
	if err := run([]string{"-sizes", "0"}, &buf); err == nil {
		t.Error("non-positive size should fail")
	}
	if err := run([]string{"-experiment", "fig2", "-format", "yaml"}, &buf); err == nil {
		t.Error("unknown format should fail")
	}
}

// TestRecoveryProbeFlag runs the crash-recovery probe on a small
// history: the report and BENCH record must carry both recovery
// times, and the speedup gate must be enforced.
func TestRecoveryProbeFlag(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var buf bytes.Buffer
	// A tiny history keeps the test fast; the 5x acceptance gate is
	// only meaningful at production record counts, so disable it here.
	if err := run([]string{"-recovery", "-recovery-records", "500", "-recovery-min-speedup", "0", "-benchrounds", "1", "-json"}, &buf); err != nil {
		t.Fatalf("recovery probe failed: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"recovery probe: 500 records", "cold replay:", "snapshot + 5 tail:", "speedup:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("BENCH files: %v (err %v), want exactly 1", matches, err)
	}
	var bf benchFile
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.Recovery == nil || bf.Recovery.Records != 500 || bf.Recovery.ColdRecordsPerSec <= 0 ||
		bf.Recovery.ColdMS <= 0 || bf.Recovery.SnapMS <= 0 || bf.Recovery.TailRecords != 5 {
		t.Fatalf("bench recovery record wrong: %+v", bf.Recovery)
	}

	// An unreachable gate must fail the run.
	buf.Reset()
	err = run([]string{"-recovery", "-recovery-records", "500", "-recovery-min-speedup", "1e12", "-benchrounds", "1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "below the required") {
		t.Fatalf("speedup gate did not fire: %v", err)
	}
}

// TestTraceGuardFlag runs the tracing-overhead guard in its cheap
// drift-only mode (-benchrounds 0 skips the timing loops).
func TestTraceGuardFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-traceguard", "-benchrounds", "0"}, &buf); err != nil {
		t.Fatalf("traceguard failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "traceguard: OK") {
		t.Fatalf("no OK verdict:\n%s", out)
	}
	for _, probe := range []string{"solve/counting-tree", "solve/mc-recurring-int-tree", "engine/seminaive-chain"} {
		if !strings.Contains(out, probe) {
			t.Errorf("guard output missing probe %s:\n%s", probe, out)
		}
	}
}
