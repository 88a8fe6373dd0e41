package apisnap

// TestSimulatedSideTakesNoLocks keeps the simulated engines on one
// concurrency rule. The simulator runs exactly one process at a time and
// the coroutine switch is a happens-before edge (internal/sim), so state
// shared between sim processes needs no lock and no atomic. A lock there
// cannot guard against the side's real hazard, state mutated across a
// yield; held across one, it would hang the whole simulation. A reader
// calls from a sim process, or after sim.Engine.Run returns.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// simulatedPackages are the internal packages whose code runs only as
// sim processes (or before and after sim.Engine.Run).
var simulatedPackages = []string{
	"sim", "core", "dma", "phys", "vm", "uapi", "swapd", "streamrt",
	"workloads", "linuxmig", "machine", "tlb", "stats", "hw", "bench",
}

// lockExceptions are the simulated-side packages that keep atomics,
// each with its reason.
var lockExceptions = map[string]string{
	"pagetable": "its PTE compare-and-swap models the hardware race of §5.2 (a DMA commit against a CPU write)",
	"rbq":       "it is the paper's lock-free red-blue queue (§4.4), shared with the realtime engine's goroutines",
}

func TestSimulatedSideTakesNoLocks(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range simulatedPackages {
		if _, ok := lockExceptions[pkg]; ok {
			t.Errorf("%s is both checked and excepted", pkg)
		}
		uses, err := lockUses(filepath.Join(root, "internal", pkg))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range uses {
			t.Errorf("internal/%s: %s; sim processes share state through the coroutine switch alone", pkg, u)
		}
	}
	for pkg, why := range lockExceptions {
		uses, err := lockUses(filepath.Join(root, "internal", pkg))
		if err != nil {
			t.Fatal(err)
		}
		if len(uses) == 0 {
			t.Errorf("internal/%s is excepted (%s) but takes no lock or atomic; drop the exception", pkg, why)
		}
	}
}

// lockUses parses the non-test Go files in dir and lists, as
// "file:line: what", every import of sync or sync/atomic and every
// reference to obs.Counter or obs.Gauge (atomic instruments).
func lockUses(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no Go package in %s", dir)
	}
	var uses []string
	at := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		uses = append(uses, fmt.Sprintf("%s:%d: %s", filepath.Base(p.Filename), p.Line, what))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			obsName := ""
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				switch path {
				case "sync", "sync/atomic":
					at(imp.Pos(), "imports "+path)
				case modulePath + "/internal/obs":
					obsName = "obs"
					if imp.Name != nil {
						obsName = imp.Name.Name
					}
				}
			}
			if obsName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == obsName &&
					(sel.Sel.Name == "Counter" || sel.Sel.Name == "Gauge") {
					at(sel.Pos(), "names obs."+sel.Sel.Name)
				}
				return true
			})
		}
	}
	sort.Strings(uses)
	return uses, nil
}
