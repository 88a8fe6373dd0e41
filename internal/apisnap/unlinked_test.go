package apisnap

// TestUnlinked keeps code that no shipped program runs out of the tree.
// It builds every cmd/* and examples/* binary and the benchmark module
// with inlining off, reads the memif functions each one links from the
// symbol table, and fails on any non-test function or method declared
// in the module that none of them links, unless api/unlinked.txt names
// it with the reason it stays. An allowlist entry that has become linked,
// or whose function is gone, fails too, so the list cannot go stale.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const modulePath = "memif"

// prefixPackage is the one package a prefix entry ("pkg.*") may cover:
// it is test support by design, and no binary is meant to link it.
const prefixPackage = modulePath + "/internal/check"

func TestUnlinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary; skipped under -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	declared, err := declaredFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedFuncs(t, root)
	allow, err := readAllowlist(filepath.Join(root, "api", "unlinked.txt"))
	if err != nil {
		t.Fatal(err)
	}
	r := diffUnlinked(declared, linked, allow)
	t.Logf("%d declared, %d unlinked, %d allowlist entries", len(declared), len(r.unlinked), len(allow))
	if msg := r.String(); msg != "" {
		t.Error(msg)
	}
}

// unlinkedReport is diffUnlinked's verdict: the unlinked functions, and
// the three ways the tree and the allowlist can disagree.
type unlinkedReport struct {
	unlinked []string // every declared function no binary links
	unlisted []string // unlinked and not allowlisted
	stale    []string // allowlisted but linked after all
	gone     []string // allowlisted but no longer declared
}

func (r unlinkedReport) String() string {
	var b strings.Builder
	section := func(head string, names []string) {
		if len(names) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s (%d):\n", head, len(names))
		for _, n := range names {
			fmt.Fprintf(&b, "\t%s\n", n)
		}
	}
	section("unlinked by every binary and not in api/unlinked.txt; delete it, move it to export_test.go, or list it with a reason", r.unlisted)
	section("in api/unlinked.txt but linked; drop the entry", r.stale)
	section("in api/unlinked.txt but not declared; drop the entry", r.gone)
	return b.String()
}

// diffUnlinked compares the declared functions (display names, as
// funcName renders them) with the linked ones (keys, as symbolKey
// renders them) and the allowlist (display names, or "pkg.*" for
// prefixPackage).
func diffUnlinked(declared []string, linked map[string]bool, allow map[string]string) unlinkedReport {
	var r unlinkedReport
	isDeclared := make(map[string]bool, len(declared))
	prefixUsed := make(map[string]bool)
	for _, d := range declared {
		isDeclared[d] = true
		if linked[nameKey(d)] {
			continue
		}
		r.unlinked = append(r.unlinked, d)
		if _, ok := allow[d]; ok {
			continue
		}
		if p := prefixOf(d); allow[p] != "" {
			prefixUsed[p] = true
			continue
		}
		r.unlisted = append(r.unlisted, d)
	}
	for entry := range allow {
		switch {
		case strings.HasSuffix(entry, ".*"):
			if !prefixUsed[entry] {
				r.stale = append(r.stale, entry)
			}
		case !isDeclared[entry]:
			r.gone = append(r.gone, entry)
		case linked[nameKey(entry)]:
			r.stale = append(r.stale, entry)
		}
	}
	sort.Strings(r.unlinked)
	sort.Strings(r.unlisted)
	sort.Strings(r.stale)
	sort.Strings(r.gone)
	return r
}

// prefixOf is the prefix entry that would cover d: "pkg.*" for d's
// package.
func prefixOf(d string) string {
	slash := strings.LastIndex(d, "/")
	dot := strings.Index(d[slash+1:], ".")
	return d[:slash+1+dot] + ".*"
}

// nameKey drops a receiver's parentheses and pointer star, so that a
// declared "(*T).M", a linked "(*T).M" and the "T.M" the linker keeps
// for a value receiver all meet on "T.M".
func nameKey(s string) string {
	return strings.NewReplacer("(", "", ")", "", "*", "").Replace(s)
}

var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+|-fm)$`)

// symbolKey folds a linked symbol into the key of the function that
// declares it: instantiation brackets are dropped, and closures
// (".func1", ".func1.2"), go and defer wrappers (".gowrap1",
// ".deferwrap1") and method values ("-fm") fold into their enclosing
// function.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	s := b.String()
	for {
		t := closureSuffix.ReplaceAllString(s, "")
		if t == s {
			return nameKey(s)
		}
		s = t
	}
}

// linkedFuncs builds every shipped binary with inlining off and returns
// the keys of the memif functions they link. A main package's symbols
// are named "main.f"; they are renamed to the binary's import path.
func linkedFuncs(t *testing.T, root string) map[string]bool {
	out := t.TempDir()
	run := func(dir string, args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		b, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, ee.Stderr)
			}
			t.Fatalf("go %s in %s: %v", strings.Join(args, " "), dir, err)
		}
		return b
	}
	run(root, "build", "-gcflags=all=-l", "-o", out+string(filepath.Separator), "./cmd/...", "./examples/...")
	run(filepath.Join(root, "benchmark"), "build", "-gcflags=all=-l", "-o", filepath.Join(out, "benchmark"), ".")

	mains := map[string]string{"benchmark": modulePath + "/benchmark"}
	for _, pat := range []string{"cmd/*", "examples/*"} {
		dirs, _ := filepath.Glob(filepath.Join(root, pat)) // fails only on a malformed pattern
		for _, d := range dirs {
			rel, _ := filepath.Rel(root, d) // d is under root
			mains[filepath.Base(d)] = modulePath + "/" + filepath.ToSlash(rel)
		}
	}
	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != len(mains) {
		t.Fatalf("built %d binaries, want %d", len(bins), len(mains))
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		pkg, ok := mains[bin.Name()]
		if !ok {
			t.Fatalf("binary %s has no package", bin.Name())
		}
		sc := bufio.NewScanner(bytes.NewReader(run(root, "tool", "nm", filepath.Join(out, bin.Name()))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr T name"; a generic shape's name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := f[2]
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = pkg + "." + rest
			}
			if strings.HasPrefix(name, modulePath+"/") || strings.HasPrefix(name, modulePath+".") {
				linked[symbolKey(name)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return linked
}

// declaredFuncs lists the module's non-test functions and methods, init
// excepted, by display name: "memif/internal/vm.(*File).Read",
// "memif/internal/hw.MemNode.String". A generic receiver's type
// parameters are dropped. The benchmark module's own functions are not
// listed: it is a module of its own, built here only for what it links
// of this one.
func declaredFuncs(root string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, file := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, file); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path)) // path is under root
		pkg := modulePath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && !(fn.Recv == nil && fn.Name.Name == "init") {
				names = append(names, pkg+"."+funcName(fn))
			}
		}
		return nil
	})
	return names, err
}

// funcName renders fn as the linker names it, without the package and
// without type parameters: "F", "T.M" or "(*T).M".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// readAllowlist reads api/unlinked.txt: one "name reason" entry a line,
// blank lines and "#" comments skipped. Every entry needs a reason, and
// only prefixPackage may be listed as a prefix.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case reason == "":
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		case strings.HasSuffix(name, ".*") && name != prefixPackage+".*":
			return nil, fmt.Errorf("%s:%d: prefix entry %s: only %s.* may be a prefix", path, i+1, name, prefixPackage)
		case allow[name] != "":
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

// TestUnlinkedDiff checks the verdict on literal inputs, with no builds.
func TestUnlinkedDiff(t *testing.T) {
	declared := []string{
		"memif/internal/a.Kept",
		"memif/internal/a.(*T).Linked",
		"memif/internal/a.Listed",
		"memif/internal/a.Unlisted",
		"memif/internal/a.(*ring).pop",
		"memif/internal/check.Model",
	}
	linked := map[string]bool{}
	for _, sym := range []string{
		"memif/internal/a.Kept.func1",                   // closure only
		"memif/internal/a.(*T).Linked-fm",               // method value only
		"memif/internal/a.(*ring[go.shape.uint32]).pop", // instantiation
	} {
		linked[symbolKey(sym)] = true
	}
	allow := map[string]string{
		"memif/internal/a.Listed":       "a user",
		"memif/internal/a.(*T).Linked":  "went stale",
		"memif/internal/a.Deleted":      "went away",
		"memif/internal/check.*":        "test support",
		"memif/internal/a.(*ring).push": "went away too",
	}
	r := diffUnlinked(declared, linked, allow)
	want := unlinkedReport{
		unlinked: []string{"memif/internal/a.Listed", "memif/internal/a.Unlisted", "memif/internal/check.Model"},
		unlisted: []string{"memif/internal/a.Unlisted"},
		stale:    []string{"memif/internal/a.(*T).Linked"},
		gone:     []string{"memif/internal/a.(*ring).push", "memif/internal/a.Deleted"},
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("diffUnlinked =\n%#v\nwant\n%#v", r, want)
	}
	msg := r.String()
	for _, name := range []string{"memif/internal/a.Unlisted", "memif/internal/a.(*T).Linked", "memif/internal/a.Deleted"} {
		if !strings.Contains(msg, name) {
			t.Errorf("report does not name %s:\n%s", name, msg)
		}
	}

	// A prefix entry that covers nothing unlinked is stale too.
	r = diffUnlinked([]string{"memif/internal/check.Model"}, map[string]bool{"memif/internal/check.Model": true},
		map[string]string{"memif/internal/check.*": "test support"})
	if len(r.stale) != 1 || r.stale[0] != "memif/internal/check.*" {
		t.Errorf("linked prefix package: stale = %v", r.stale)
	}
	if diffUnlinked(declared[:1], map[string]bool{"memif/internal/a.Kept": true}, nil).String() != "" {
		t.Error("a clean tree reported a problem")
	}
}

func TestSymbolKey(t *testing.T) {
	for sym, want := range map[string]string{
		"memif/internal/a.F":                                     "memif/internal/a.F",
		"memif/internal/a.F.func1":                               "memif/internal/a.F",
		"memif/internal/a.F.func1.2":                             "memif/internal/a.F",
		"memif/internal/a.(*T).M.gowrap1":                        "memif/internal/a.T.M",
		"memif/internal/a.(*T).M.deferwrap2":                     "memif/internal/a.T.M",
		"memif/internal/a.(*T).M-fm":                             "memif/internal/a.T.M",
		"memif/internal/a.T.M":                                   "memif/internal/a.T.M",
		"memif/internal/a.newRing[go.shape.uint32]":              "memif/internal/a.newRing",
		"memif/internal/a.newRing[go.shape.struct { b [4]int }]": "memif/internal/a.newRing",
		"memif/internal/a.(*ring[go.shape.uint32]).pop.func1":    "memif/internal/a.ring.pop",
	} {
		if got := symbolKey(sym); got != want {
			t.Errorf("symbolKey(%q) = %q, want %q", sym, got, want)
		}
	}
	for decl, want := range map[string]string{
		"memif/internal/a.(*T).M": "memif/internal/a.T.M",
		"memif/internal/a.T.M":    "memif/internal/a.T.M",
	} {
		if got := nameKey(decl); got != want {
			t.Errorf("nameKey(%q) = %q, want %q", decl, got, want)
		}
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	for text, wantErr := range map[string]string{
		"# comment\n\nmemif/internal/a.F a user\nmemif/internal/check.* test support\n": "",
		"memif/internal/a.F\n":                             "has no reason",
		"memif/internal/a.* a package\n":                   "only memif/internal/check.* may be a prefix",
		"memif/internal/a.F one\nmemif/internal/a.F two\n": "listed twice",
	} {
		path := filepath.Join(dir, "unlinked.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		allow, err := readAllowlist(path)
		switch {
		case wantErr == "" && (err != nil || allow["memif/internal/a.F"] != "a user"):
			t.Errorf("%q: allow %v, err %v", text, allow, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%q: err %v, want %q", text, err, wantErr)
		}
	}
}
