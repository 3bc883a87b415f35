package largemail_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAPICeiling is how many exported functions and methods of the
// product only tests may call: reference models the tests compare against,
// test hooks, and paper operations no program runs yet. A change that needs
// more raises it here, in its own diff.
const testOnlyAPICeiling = 30

// interfaceMethods are method names a type carries to satisfy an interface
// (fmt.Stringer, error, sort.Interface, sim.Runner, netsim's handlers, the
// fault injector's hooks, encoding.TextMarshaler), called through the
// interface and so never by name.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Run": true, "Receive": true, "Reset": true, "Crashed": true,
	"Recovered": true, "MarshalText": true, "UnmarshalText": true,
}

// srcLine is one line of one file.
type srcLine struct {
	file string
	line int
}

// TestTestOnlyAPIWithinCeiling: the exported functions and methods declared
// in non-test code outside bench/ whose name appears on no other non-test
// line — comments excluded, bench/ counted as a caller — number at most
// testOnlyAPICeiling.
func TestTestOnlyAPIWithinCeiling(t *testing.T) {
	fset := token.NewFileSet()
	uses := make(map[string]map[srcLine]bool) // identifier → lines it is on
	decls := make(map[srcLine]string)         // declaration line → its name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if uses[id.Name] == nil {
					uses[id.Name] = make(map[srcLine]bool)
				}
				uses[id.Name][srcLine{path, fset.Position(id.Pos()).Line}] = true
			}
			return true
		})
		if strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || (fn.Recv != nil && interfaceMethods[fn.Name.Name]) {
				continue
			}
			decls[srcLine{path, fset.Position(fn.Name.Pos()).Line}] = fn.Name.Name
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for at, name := range decls {
		if len(uses[name]) == 1 { // the declaration's own line
			unused = append(unused, at.file+":"+strconv.Itoa(at.line)+": "+name)
		}
	}
	sort.Strings(unused)
	if len(unused) > testOnlyAPICeiling {
		t.Errorf("%d exported functions or methods have no caller outside tests, above the ceiling of %d:\n\t%s",
			len(unused), testOnlyAPICeiling, strings.Join(unused, "\n\t"))
	}
}
