package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/granularity"
	"repro/internal/oracle"
	"repro/internal/propagate"
	"repro/internal/stp"
)

func testOptions(t *testing.T) options {
	t.Helper()
	return options{
		seeds:        40,
		seedStart:    1,
		workers:      2,
		reproDir:     t.TempDir(),
		shrinkChecks: 200,
		knobs:        oracle.DefaultKnobs(),
	}
}

func TestFuzzCleanRun(t *testing.T) {
	opt := testOptions(t)
	var out bytes.Buffer
	rep, err := fuzz(&out, opt, oracle.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("clean tree reported a violation: %s: %s", rep.Contract, rep.Detail)
	}
	if !strings.Contains(out.String(), "seeds clean") {
		t.Fatalf("summary missing from output:\n%s", out.String())
	}
	if entries, err := os.ReadDir(opt.reproDir); err == nil && len(entries) != 0 {
		t.Fatalf("clean run wrote %d repro files", len(entries))
	}
}

func TestFuzzCatchesMutantAndWritesRepro(t *testing.T) {
	opt := testOptions(t)
	opt.workers = 1 // deterministic first violation
	broken := oracle.Hooks{
		ConvertInterval: func(sys *granularity.System, src, dst string, lo, hi int64) (int64, int64) {
			nlo, nhi := propagate.NewConverter(sys, src, dst).Interval(lo, hi)
			if nlo > -stp.Inf && nlo < nhi {
				nlo++
			}
			return nlo, nhi
		},
	}
	var out bytes.Buffer
	rep, err := fuzz(&out, opt, broken)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatalf("mutant not caught in %d seeds:\n%s", opt.seeds, out.String())
	}
	if rep.Contract != oracle.ContractConversion {
		t.Fatalf("caught contract %q, want %q", rep.Contract, oracle.ContractConversion)
	}
	if n := len(rep.Instance.Spec.Variables); n > 4 {
		t.Fatalf("shrunk repro has %d variables, want <= 4", n)
	}
	files, err := filepath.Glob(filepath.Join(opt.reproDir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one repro file, got %v (%v)", files, err)
	}
	loaded, err := oracle.LoadRepro(files[0])
	if err != nil {
		t.Fatal(err)
	}
	recorded, _, err := loaded.Replay(opt.knobs, broken)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("saved repro does not reproduce under the mutant")
	}
	if recorded, _, err = loaded.Replay(opt.knobs, oracle.Hooks{}); err != nil || len(recorded) != 0 {
		t.Fatalf("saved repro fails under clean code: %v, %v", recorded, err)
	}
}

func TestFuzzDurationMode(t *testing.T) {
	opt := testOptions(t)
	opt.duration = 200 * time.Millisecond
	var out bytes.Buffer
	rep, err := fuzz(&out, opt, oracle.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("clean tree reported a violation in duration mode: %s", rep.Contract)
	}
}

// TestUnknownContractExits2: a -contracts list naming an unknown contract
// (a typo, or one since deleted) exits 2 and lists the known contracts
// instead of selecting nothing and reporting a clean run.
func TestUnknownContractExits2(t *testing.T) {
	if only, err := parseContracts(" tag, mining ,"); err != nil || len(only) != 2 {
		t.Fatalf("parseContracts(tag,mining) = %v, %v", only, err)
	}
	bin := filepath.Join(t.TempDir(), "tempofuzz")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, list := range []string{"no-such-contract", "tag,retired-contract"} {
		cmd := exec.Command(bin, "-seeds", "20", "-contracts", list, "-repro-dir", t.TempDir())
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-contracts %s: exit %v, want status 2", list, err)
		}
		for _, c := range oracle.ContractNames() {
			if !strings.Contains(stderr.String(), c) {
				t.Fatalf("-contracts %s: stderr does not list %q:\n%s", list, c, stderr.String())
			}
		}
	}
}
