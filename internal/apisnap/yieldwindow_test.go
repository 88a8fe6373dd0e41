package apisnap

// TestYieldWindows lists the simulated side's yield windows: a local
// variable bound to shared state (a lookup), then a call that lets
// another sim process run (a yield), then a write through that variable
// (a mutation). The simulated engines' real bugs have had this shape —
// vm.Mmap reserving after its charge, streamrt.Run, vm.Munmap removing
// its VMA after its charge — and each window below is safe only for the
// reason written beside it. The
// test fails on a window that is not listed, and on a listed one that is
// gone. Since a caller blocked in Poll serves requests beside the kernel
// worker, two contexts run serveNext → serveReq → prepare/startTrain at
// once; no unlisted window may open on that path.
//
// The lint is intraprocedural and ignores control flow: a window whose
// lookup is in a caller is not seen (interproceduralWindows lists the
// known one), and a yield in one branch followed by a mutation in
// another is reported.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var yieldPackages = []string{"vm", "core", "swapd", "streamrt"}

// Calls that let another sim process run, that bind shared state, and
// that write through their receiver.
var (
	yieldCalls  = map[string]bool{"busy": true, "charge": true, "SleepNS": true, "Busy": true}
	lookupCalls = map[string]bool{"Lookup": true, "GangLookup": true, "Load": true, "Dequeue": true, "Req": true, "FrameAt": true, "ShadowAt": true}
	mutateCalls = map[string]bool{"Store": true, "CompareAndSwap": true, "Enqueue": true, "Free": true, "Release": true,
		"Pin": true, "Unpin": true, "Move": true, "SetShadow": true, "DropShadow": true, "TakeShadow": true, "Abort": true}
)

// knownWindows are the windows the lint finds, as "pkg.Func var", each
// with why the yield cannot invalidate the lookup.
var knownWindows = map[string]string{
	"core.remap oldFrame": "the yield is rollbackRemap on the allocation-failure path, which returns; on the path that reaches the refcount update nothing yields between the frame lookup and the write",
}

// interproceduralWindows are windows the lint cannot see, each with its
// reason and where it is decided.
var interproceduralWindows = map[string]string{
	"core.toSubmission idx": "the staging dequeue is inside rbq.Queue.Flush or Drain, and toSubmission charges its two queue ops before the submission enqueue; whether two flushers and the worker's drain can reorder through it is ROADMAP item 16(c)",
}

func TestYieldWindows(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, pkg := range yieldPackages {
		ws, err := yieldWindows(filepath.Join(root, "internal", pkg), pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			found[w.key] = true
			if why, ok := knownWindows[w.key]; ok {
				t.Logf("%s (%s)", w.text, why)
				continue
			}
			t.Errorf("%s: unlisted yield window", w.text)
		}
	}
	for key := range knownWindows {
		if !found[key] {
			t.Errorf("%s is listed but the lint no longer finds it; drop the entry", key)
		}
	}
	for key, why := range interproceduralWindows {
		t.Logf("%s: not seen by the lint (%s)", key, why)
	}
}

type window struct{ key, text string }

// calleeName is the bare name a call expression calls.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// rootIdent is the variable an lvalue or receiver is reached through.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// yieldWindows parses the non-test files of dir and returns its windows.
// A function yields if it calls a yieldCalls name or, transitively, a
// function of the package that yields.
func yieldWindows(dir, pkgName string) ([]window, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var funcs []*ast.FuncDecl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs = append(funcs, fd)
				}
			}
		}
	}
	yields := map[string]bool{}
	for k := range yieldCalls {
		yields[k] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			if yields[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && yields[calleeName(call)] {
					yields[fd.Name.Name], changed = true, true
				}
				return !yields[fd.Name.Name]
			})
		}
	}
	var out []window
	for _, fd := range funcs {
		looked := map[string]token.Pos{}  // variable -> its lookup
		yielded := map[string]token.Pos{} // variable -> first yield since its lookup
		reported := map[string]bool{}
		mutate := func(id *ast.Ident, at token.Pos) {
			if id == nil || reported[id.Name] || yielded[id.Name] == token.NoPos {
				return
			}
			reported[id.Name] = true
			line := func(p token.Pos) int { return fset.Position(p).Line }
			key := pkgName + "." + fd.Name.Name + " " + id.Name
			out = append(out, window{key, fmt.Sprintf("%s:%d: %s looked up at line %d, yield at line %d, mutated at line %d",
				filepath.Base(fset.Position(at).Filename), line(at), key, line(looked[id.Name]), line(yielded[id.Name]), line(at))})
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, r := range x.Rhs { // evaluated before the assignment
					ast.Inspect(r, visit)
				}
				for _, l := range x.Lhs {
					if _, plain := l.(*ast.Ident); !plain {
						mutate(rootIdent(l), x.Pos())
					}
				}
				isLookup := false
				for _, r := range x.Rhs {
					ast.Inspect(r, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok && lookupCalls[calleeName(call)] {
							isLookup = true
						}
						return true
					})
				}
				if _, ok := x.Rhs[0].(*ast.IndexExpr); ok && len(x.Lhs) == 2 {
					isLookup = true // v, ok := m[k]
				}
				for _, l := range x.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
						delete(yielded, id.Name)
						delete(looked, id.Name)
						if isLookup {
							looked[id.Name] = x.Pos()
						}
					}
				}
				return false
			case *ast.IncDecStmt:
				mutate(rootIdent(x.X), x.Pos())
			case *ast.CallExpr:
				name := calleeName(x)
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && mutateCalls[name] {
					mutate(rootIdent(sel.X), x.Pos())
				}
				if yields[name] {
					for v := range looked {
						if yielded[v] == token.NoPos {
							yielded[v] = x.Pos()
						}
					}
				}
			}
			return true
		}
		ast.Inspect(fd.Body, visit)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].text < out[j].text })
	return out, nil
}
