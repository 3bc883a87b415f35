package largemail_test

import (
	"bufio"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed lists the functions and methods of the product that no
// program reaches and that stay anyway, each with the reason. An entry that a
// program comes to reach, or whose function is gone, fails
// TestReachableFromPrograms: the table only shrinks.
var reachAllowed = map[string]string{
	// §3.1.3, §3.1.4 and §3.2.3c reconfiguration: no program reconfigures a
	// running world yet.
	"internal/assign.Assignment.AddHost":      "§3.1.3 add a host and rebalance; the assign tests run it",
	"internal/assign.Assignment.RemoveHost":   "§3.1.3 delete a host and rebalance; the assign tests run it",
	"internal/assign.Assignment.Loads":        "the per-server loads Fabric.refresh reads after a §3.1.3 reconfiguration",
	"internal/client.Host.ID":                 "Fabric.refresh re-points each host's agents after a §3.1.3 reconfiguration",
	"internal/core.Fabric.AddServer":          "§3.1.3 add a server to a running world; loadgen's auditor tests run it under load",
	"internal/core.Fabric.RemoveServer":       "§3.1.3 delete a server from a running world; loadgen's auditor tests run it under load",
	"internal/core.Fabric.refresh":            "rebalances and re-points the world after Fabric.AddServer and RemoveServer",
	"internal/loadgen.SimDriver.AddServer":    "§3.1.3 reconfiguration under load, run by loadgen's auditor tests",
	"internal/loadgen.SimDriver.RemoveServer": "§3.1.3 reconfiguration under load, run by loadgen's auditor tests",
	"internal/loadgen.SimDriver.MigrateUser":  "§3.1.4 user migration under load, run by loadgen's auditor tests",
	"internal/locind.System.AddServer":        "§3.2.3c reconfiguration of the location-independent design, run by the locind tests",
	"internal/locind.System.RemoveServer":     "§3.2.3c reconfiguration of the location-independent design, run by the locind tests",
	"internal/server.RegionMap.RemoveServer":  "§3.1.3 server deletion in the region map, run by the server and locind tests",

	// The §3.2.2b federation: no program builds one yet.
	"internal/core.NewLocationFederation":     "§3.2.2b multi-region location-independent world; the core tests build one",
	"internal/core.LocationFederation.RunFor": "reader of the §3.2.2b federation, used by the core tests",
	"internal/core.LocationFederation.System": "reader of the §3.2.2b federation, used by the core tests",
	"internal/core.LocationFederation.Users":  "reader of the §3.2.2b federation, used by the core tests",

	// Paper operations only the tests run.
	"internal/client.Agent.Login":      "§3.1.2c login, run by the client and loadgen tests",
	"internal/client.Agent.Logout":     "§3.1.2c logout, run by the client tests",
	"internal/mail.Message.AddPart":    "§2 multi-part content; the mail and mailstore tests build voice parts with it",
	"internal/graph.Graph.BorderNodes": "§3.3.1-A border nodes; the graph and mst tests check backbones against it",
	"internal/sim.Units":               "paper time units to ticks; the sim and evalsys tests build durations with it",

	// Hooks the tests of other packages call.
	"internal/client.Agent.Inbox":             "test hook: the client, core and loadgen tests read what an agent retrieved",
	"internal/client.Agent.Notifications":     "test hook: the client and loadgen tests read an agent's alerts",
	"internal/client.Host.Acks":               "test hook: the client and core tests read a host's submission acks",
	"internal/graph.Paths.PathTo":             "test hook: the graph and netsim tests compare routed hops with the shortest path",
	"internal/livenet.Agent.Inbox":            "test hook: the livenet, loadgen and wire tests read what an agent retrieved",
	"internal/livenet.Cluster.Metrics":        "test hook: the livenet and loadgen tests read the cluster's counters",
	"internal/livenet.Server.Checks":          "test hook: the wire tests count a server's polls",
	"internal/locind.Agent.AtPrimary":         "test hook: the locind and core tests check where an agent logged in",
	"internal/mail/mailstore.Store.Peek":      "test hook: the mailstore, server and wire tests read a mailbox without draining it",
	"internal/mail/mailstore.Store.Users":     "test hook: the mailstore, locind, server and wire tests list a store's mailboxes",
	"internal/netsim.Network.AfterRecycle":    "test hook: the netsim, broadcast, client, locind and server tests scribble on recycled boxes",
	"internal/netsim.Network.Deregister":      "test hook: the netsim, broadcast and server tests detach a node's handler",
	"internal/obs.Table.Rows":                 "test hook: the obs and experiments tests read a table's cells",
	"internal/server.Server.MailboxLen":       "test hook: the server, client, core and locind tests count a mailbox",
	"internal/server.Server.PendingTransfers": "test hook: the server, core and locind tests count unacknowledged transfers",
	"internal/server.Server.Store":            "test hook: the server and locind tests reach a server's mailbox store",
	"internal/sim.Event.At":                   "test hook: the server tests read a pending retry's due time",
	"internal/sim.Scheduler.Pending":          "test hook: the sim and server tests count queued events",
}

// TestReachableFromPrograms: every function and method declared in the
// module's non-test files is reached from a program — a main in cmd/,
// examples/ or bench/, an init or a package-level initialiser — or is listed
// in reachAllowed.
func TestReachableFromPrograms(t *testing.T) {
	funcs, dead, err := unreachable(".")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, key := range sortedKeys(dead) {
		lines += dead[key]
		if _, ok := reachAllowed[key]; !ok {
			t.Errorf("%s (%d lines) is reached from no program: give it a caller, move it into the tests that use it, delete it, or list it in reachAllowed", key, dead[key])
		}
	}
	for _, key := range sortedKeys(reachAllowed) {
		if _, ok := funcs[key]; !ok {
			t.Errorf("reachAllowed lists %s, which is no longer declared", key)
		} else if _, ok := dead[key]; !ok {
			t.Errorf("reachAllowed lists %s, which a program now reaches", key)
		}
	}
	t.Logf("%d of %d functions (%d lines) are reached from no program", len(dead), len(funcs), lines)
}

// TestReachabilityControl runs the analysis on testdata/reach, a module that
// reaches one function only from a package-level initialiser, one method only
// through an interface literal in a type assertion, one as a method value
// handed to a callback and one of a generic type, and leaves one function
// dead: exactly that one is reported.
func TestReachabilityControl(t *testing.T) {
	_, dead, err := unreachable(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(dead); len(got) != 1 || got[0] != "dead" {
		t.Errorf("unreachable in testdata/reach = %v, want [dead]", got)
	}
}

// unreachable type-checks the non-test files of the module at root and walks
// the uses of functions from its roots: every main of a main package, every
// init, every package-level initialiser, and every method that has the name
// of a method of an interface type in the program — a named one of the module
// or of a package it imports, or a literal such as interface{ Reset() } —
// since a call through an interface names no method. It returns every
// declared function and those the walk does not reach, each keyed
// "<dir>.<Recv>.<Name>" (dir relative to root) with its lines, doc comment
// included.
func unreachable(root string) (funcs, dead map[string]int, err error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  make(map[string]string),
		pkgs:  make(map[string]*types.Package),
		infos: make(map[string]*types.Info),
		files: make(map[string][]*ast.File),
		std:   importer.Default(),
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		l.dirs[path.Join(module, filepath.ToSlash(rel))] = p
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for ip := range l.dirs {
		if _, err := l.Import(ip); err != nil {
			return nil, nil, err
		}
	}

	type fn struct {
		key   string
		decl  *ast.FuncDecl
		info  *types.Info
		lines int
	}
	decls := make(map[*types.Func]fn)
	ifaceNames := map[string]bool{"Error": true}
	live := make(map[*types.Func]bool)
	var work []*types.Func
	mark := func(f *types.Func) {
		if f = f.Origin(); !live[f] {
			live[f] = true
			work = append(work, f)
		}
	}
	uses := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Func); ok {
					mark(f)
				}
			}
			return true
		})
	}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var scopeIfaces func(p *types.Package)
	scopeIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scopeIfaces(imp)
		}
	}
	funcs = make(map[string]int)
	for ip, files := range l.files {
		info, dir := l.infos[ip], strings.TrimPrefix(strings.TrimPrefix(ip, module), "/")
		scopeIfaces(l.pkgs[ip])
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						uses(info, d)
					}
				case *ast.FuncDecl:
					obj := info.Defs[d.Name].(*types.Func)
					key := d.Name.Name
					if d.Recv != nil {
						key = recvName(d.Recv.List[0].Type) + "." + key
					}
					if dir != "" {
						key = dir + "." + key
					}
					start := d.Pos()
					if d.Doc != nil {
						start = d.Doc.Pos()
					}
					lines := l.fset.Position(d.End()).Line - l.fset.Position(start).Line + 1
					decls[obj] = fn{key, d, info, lines}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && l.pkgs[ip].Name() == "main") {
						mark(obj)
					} else {
						funcs[key] = lines
					}
				}
			}
		}
	}
	for obj, d := range decls {
		if d.decl.Recv != nil && ifaceNames[obj.Name()] {
			mark(obj)
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if d, ok := decls[f]; ok && d.decl.Body != nil {
			uses(d.info, d.decl.Body)
		}
	}
	dead = make(map[string]int)
	for obj, d := range decls {
		if !live[obj] {
			dead[d.key] = d.lines
		}
	}
	return funcs, dead, nil
}

// loader type-checks the packages of one module from source, on demand, and
// imports everything else from the toolchain's export data.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory, for the module's packages
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
	std   types.Importer
}

func (l *loader) Import(ip string) (*types.Package, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	dir, ok := l.dirs[ip]
	if !ok {
		return l.std.Import(ip)
	}
	bp, err := build.ImportDir(dir, 0)
	if errors.As(err, new(*build.NoGoError)) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	p, err := (&types.Config{Importer: l}).Check(ip, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ip], l.infos[ip], l.files[ip] = p, info, files
	return p, nil
}

// recvName is the type name of a method's receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", errors.New(gomod + ": no module line")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
