package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/event"
	"repro/internal/store"
)

const rosterSpec = `name roster
period 86400
anchor 1
granule 21600-50399
granule 50400-79199
`

func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSystemDefault(t *testing.T) {
	sys, err := LoadSystem("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Get("b-day"); !ok {
		t.Fatal("default system incomplete")
	}
}

func TestLoadSystemWithPeriodic(t *testing.T) {
	path := writeFile(t, "roster.gran", rosterSpec)
	sys, err := LoadSystem(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := sys.Get("roster")
	if !ok {
		t.Fatal("roster not registered")
	}
	// 06:00 is inside the first shift.
	if _, ok := g.TickOf(event.At(1800, 1, 1, 6, 0, 0)); !ok {
		t.Fatal("06:00 should be covered")
	}
	// 03:00 is not.
	if _, ok := g.TickOf(event.At(1800, 1, 1, 3, 0, 0)); ok {
		t.Fatal("03:00 should be a gap")
	}
}

func TestLoadSystemErrors(t *testing.T) {
	if _, err := LoadSystem("/does/not/exist.gran", nil); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := writeFile(t, "bad.gran", "name x\nperiod notanumber\n")
	if _, err := LoadSystem(bad, nil); err == nil {
		t.Fatal("malformed spec accepted")
	}
	// Clashing with a builtin name is rejected.
	clash := writeFile(t, "clash.gran", "name day\nperiod 86400\nanchor 1\ngranule 0-86399\n")
	if _, err := LoadSystem(clash, nil); err == nil {
		t.Fatal("name clash accepted")
	}
	// Several files, comma separated (with blanks tolerated).
	a := writeFile(t, "a.gran", rosterSpec)
	sys, err := LoadSystem(a+", ", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Get("roster"); !ok {
		t.Fatal("roster missing after list load")
	}
}

func TestReadSequence(t *testing.T) {
	path := writeFile(t, "seq.txt", "10 a\n20 b\n")
	seq, err := ReadSequence(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || seq[1].Type != "b" {
		t.Fatalf("seq = %v", seq)
	}
	if _, err := ReadSequence(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing sequence accepted")
	}
}

func TestLoadStructureFormats(t *testing.T) {
	jsonSpec := writeFile(t, "s.json", `{"edges":[{"from":"A","to":"B","constraints":[{"min":0,"max":1,"gran":"day"}]}],"assign":{"A":"x"}}`)
	s, assign, err := LoadStructure(jsonSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 1 || assign["A"] != "x" {
		t.Fatalf("json load: %d edges, assign %v", s.NumEdges(), assign)
	}
	dsl := writeFile(t, "s.tcg", "# dsl\nA -> B : [0,1]day\nassign A = x\n")
	s2, assign2, err := LoadStructure(dsl)
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != s.String() || assign2["A"] != "x" {
		t.Fatal("dsl load differs from json load")
	}
	if _, _, err := LoadStructure(writeFile(t, "bad.txt", "not a structure")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := LoadStructure(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadSystemMalformedSpec: untrusted periodic spec files must come back
// as typed errors from the error-returning constructor path, never a panic
// and never a silently-registered granularity.
func TestLoadSystemMalformedSpec(t *testing.T) {
	cases := map[string]string{
		"truncated":    "name x\nperiod",
		"no-granules":  "name x\nperiod 10\nanchor 1\n",
		"bad-span":     "name x\nperiod 10\nanchor 1\ngranule 8-2\n",
		"out-of-range": "name x\nperiod 10\nanchor 1\ngranule 5-20\n",
		"zero-period":  "name x\nperiod 0\nanchor 1\ngranule 0-3\n",
		"overlap":      "name x\nperiod 10\nanchor 1\ngranule 0-5\ngranule 3-8\n",
		"empty-name":   "name \nperiod 10\nanchor 1\ngranule 0-3\n",
		"binary-junk":  "\x00\x01\x02\xff",
	}
	for name, body := range cases {
		if _, err := LoadSystem(writeFile(t, name+".gran", body), nil); err == nil {
			t.Errorf("%s: malformed spec accepted", name)
		}
	}
	// A shadowing redefinition of a built-in is refused too.
	dup := "name day\nperiod 86400\nanchor 1\ngranule 0-86399\n"
	if _, err := LoadSystem(writeFile(t, "dup.gran", dup), nil); err == nil {
		t.Error("redefinition of built-in granularity accepted")
	}
}

// TestCheckpointHelpers covers LoadCheckpoint over the checkpoints the
// CLIs write through store.WriteFileAtomic: missing files report absent
// without error, writes land atomically, and decode failures surface.
func TestCheckpointHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	loaded, err := LoadCheckpoint(path, func(io.Reader) error { t.Fatal("decode called for a missing file"); return nil })
	if loaded || err != nil {
		t.Fatalf("missing file: loaded=%v err=%v", loaded, err)
	}
	read := func() string {
		t.Helper()
		var got []byte
		loaded, err := LoadCheckpoint(path, func(r io.Reader) error {
			var rerr error
			got, rerr = io.ReadAll(r)
			return rerr
		})
		if !loaded || err != nil {
			t.Fatalf("loaded=%v err=%v", loaded, err)
		}
		return string(got)
	}
	for _, payload := range []string{"payload", "second"} {
		if err := store.WriteFileAtomic(store.DirFS{}, path, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatal("temporary file left behind")
		}
		if got := read(); got != payload {
			t.Fatalf("read %q, wrote %q", got, payload)
		}
	}
	// Decoder errors propagate.
	if _, err := LoadCheckpoint(path, func(io.Reader) error { return os.ErrInvalid }); err == nil {
		t.Fatal("decoder error swallowed")
	}
}

// TestCorruptCheckpointQuarantine covers the hardened load path: a
// checkpoint that fails to decode is renamed to <path>.corrupt, the error
// is the typed *CorruptCheckpointError, and the next load starts fresh.
func TestCorruptCheckpointQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := os.WriteFile(path, []byte("torn gibberi"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path, func(io.Reader) error { return os.ErrInvalid })
	if loaded {
		t.Fatal("corrupt checkpoint reported loaded")
	}
	var corrupt *CorruptCheckpointError
	if !errors.As(err, &corrupt) {
		t.Fatalf("error %v (%T) is not a *CorruptCheckpointError", err, err)
	}
	if corrupt.Path != path || corrupt.Quarantine != path+".corrupt" {
		t.Fatalf("bad quarantine bookkeeping: %+v", corrupt)
	}
	if !errors.Is(err, os.ErrInvalid) {
		t.Fatal("decoder cause not wrapped")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still in place")
	}
	evidence, err := os.ReadFile(path + ".corrupt")
	if err != nil || string(evidence) != "torn gibberi" {
		t.Fatalf("evidence file: %q, %v", evidence, err)
	}
	// The retry finds no checkpoint and starts fresh — no crash loop.
	loaded, err = LoadCheckpoint(path, func(io.Reader) error { t.Fatal("decode called"); return nil })
	if loaded || err != nil {
		t.Fatalf("retry after quarantine: loaded=%v err=%v", loaded, err)
	}
}

func TestLoadSystemDefines(t *testing.T) {
	sys, err := LoadSystem("", []string{
		"nyse=trading(09:30, 16:00, us, 13:00)",
		"nyse-week = group(nyse, 5)",
	})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := sys.Get("nyse")
	if !ok {
		t.Fatal("nyse not registered")
	}
	// 1996-07-04 10:00 ET is a closed holiday; the prior session is Jul 3.
	if _, ok := g.TickOf(event.At(1996, 7, 4, 14, 0, 0)); ok {
		t.Error("July 4th session should not exist")
	}
	if _, ok := sys.Get("nyse-week"); !ok {
		t.Fatal("definition could not reference an earlier definition")
	}

	for _, bad := range []string{
		"nodelimiter",
		"=day",
		"x=",
		"day=group(hour, 24)",      // clashes with a builtin
		"x=zoned(day, mars)",       // bad expression
		"x=group(missing-name, 2)", // unknown identifier
	} {
		if _, err := LoadSystem("", []string{bad}); err == nil {
			t.Errorf("-define %q accepted", bad)
		}
	}
	// A define clashing with an earlier define is rejected too.
	if _, err := LoadSystem("", []string{"x=day", "x=week"}); err == nil {
		t.Error("duplicate definition accepted")
	}
}
