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
	"sync"
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

	// Paper operations only the tests run.
	"internal/client.Agent.Login":      "§3.1.2c login, run by the client and loadgen tests",
	"internal/client.Agent.Logout":     "§3.1.2c logout, run by the client tests",
	"internal/mail.Message.AddPart":    "§2 multi-part content; the mail and mailstore tests build voice parts with it",
	"internal/graph.Graph.BorderNodes": "§3.3.1-A border nodes; the graph and mst tests check backbones against it",
	"internal/sim.Units":               "paper time units to ticks; the sim tests build durations with it",

	// Hooks the tests of other packages call.
	"internal/client.Agent.Inbox":             "test hook: the client, core and loadgen tests read what an agent retrieved",
	"internal/client.Agent.Notifications":     "test hook: the client and loadgen tests read an agent's alerts",
	"internal/client.Host.Acks":               "test hook: the client and core tests read a host's submission acks",
	"internal/graph.Paths.PathTo":             "test hook: the graph and netsim tests compare routed hops with the shortest path",
	"internal/livenet.Agent.Inbox":            "test hook: the livenet, loadgen and wire tests read what an agent retrieved",
	"internal/locind.Agent.AtPrimary":         "test hook: the locind and core tests check where an agent logged in",
	"internal/mail/mailstore.Store.Peek":      "test hook: the mailstore, server and wire tests read a mailbox without draining it",
	"internal/mail/mailstore.Store.Users":     "test hook: the livenet, mailstore, locind, server and wire tests list a store's mailboxes",
	"internal/netsim.Network.AfterRecycle":    "test hook: the netsim, broadcast, client, locind and server tests scribble on recycled boxes",
	"internal/netsim.Network.Deregister":      "test hook: the netsim, broadcast and server tests detach a node's handler",
	"internal/obs.Table.Rows":                 "test hook: the obs and experiments tests read a table's cells",
	"internal/server.Server.MailboxLen":       "test hook: the server, client, core and locind tests count a mailbox",
	"internal/server.Server.PendingTransfers": "test hook: the server, core and locind tests count unacknowledged transfers",
	"internal/server.Server.Store":            "test hook: the server and locind tests reach a server's mailbox store",
	"internal/sim.Event.At":                   "test hook: the server tests read a pending retry's due time",
	"internal/sim.Scheduler.Pending":          "test hook: the sim and server tests count queued events",
}

// optionAllowed lists the option fields no program sets that stay anyway,
// each with the reason. An entry that a program comes to set, or whose field
// is gone, fails TestOptionsSetByPrograms: the table only shrinks.
var optionAllowed = map[string]string{
	"internal/assign.Config.ChannelUtil":               "§3.1.1's variable-delay modification; the assign tests run it",
	"internal/loadgen.SimConfig.SpareServersPerRegion": "hardware for §3.1.3 reconfiguration under load, with reachAllowed's SimDriver.AddServer",
	"internal/core.SyntaxConfig.AuthorityLen":          "the authority-list length; the core tests and loadgen's SimDriver-vs-SyntaxSystem test set it",
	"internal/core.SyntaxConfig.MaxLoad":               "the §3.1.1 server capacity; loadgen's SimDriver-vs-SyntaxSystem test sets it",
}

// TestReachableFromPrograms: every function and method declared in the
// module's non-test files is reached from a program — a main in cmd/,
// examples/ or bench/, an init or a package-level initialiser — or is listed
// in reachAllowed.
func TestReachableFromPrograms(t *testing.T) {
	p, err := moduleProgram()
	if err != nil {
		t.Fatal(err)
	}
	funcs, dead := p.unreachable()
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

// TestOptionsSetByPrograms: every exported field of an option type (an
// exported struct outside bench/ named …Config, …ConfigOf, …Options, …Spec,
// …Workload, …Weights or …Population) is set by a program outside the
// field's own package, or is listed in optionAllowed. A field no program sets
// has one value on every path: it is a constant, not an option.
func TestOptionsSetByPrograms(t *testing.T) {
	p, err := moduleProgram()
	if err != nil {
		t.Fatal(err)
	}
	fields, unset := p.unsetOptions()
	for _, key := range sortedKeys(unset) {
		if _, ok := optionAllowed[key]; !ok {
			t.Errorf("option %s is set by no program: make it a constant, unexport it, delete it, or list it in optionAllowed", key)
		}
	}
	for _, key := range sortedKeys(optionAllowed) {
		if !fields[key] {
			t.Errorf("optionAllowed lists %s, which is no longer an exported option field", key)
		} else if !unset[key] {
			t.Errorf("optionAllowed lists %s, which a program now sets", key)
		}
	}
	t.Logf("%d of %d option fields are set by no program", len(unset), len(fields))
}

// TestReachabilityControl runs both analyses on testdata/reach, a module
// that reaches one function only from a package-level initialiser, one
// method only through an interface literal in a type assertion, one as a
// method value handed to a callback and one of a generic type, and leaves one
// function dead and one method dead that has the name, but not the
// signature, of flag.Getter's Get: exactly those two are reported. Of its
// option fields, one set only in its own package (by a literal and an
// assignment) and one set by nothing are reported; those set from main with a
// key, through &, or by position in an unkeyed literal are not.
func TestReachabilityControl(t *testing.T) {
	p, err := analyse(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	_, dead := p.unreachable()
	if got, want := strings.Join(sortedKeys(dead), " "), "dead registry.Get"; got != want {
		t.Errorf("unreachable in testdata/reach = [%s], want [%s]", got, want)
	}
	_, unset := p.unsetOptions()
	if got, want := strings.Join(sortedKeys(unset), " "), "opts.Config.Nothing opts.Config.Own"; got != want {
		t.Errorf("unset options in testdata/reach = [%s], want [%s]", got, want)
	}
}

// moduleProgram is the analysis of this module, made once for the tests
// that share it.
var moduleProgram = sync.OnceValues(func() (*program, error) { return analyse(".") })

// program is a module type-checked from its non-test files, with the
// functions a walk from its programs reaches.
type program struct {
	l      *loader
	module string
	decls  map[*types.Func]funcDecl
	live   map[*types.Func]bool
}

type funcDecl struct {
	key   string // "<dir>.<Recv>.<Name>", dir relative to the module root
	decl  *ast.FuncDecl
	pkg   *types.Package
	info  *types.Info
	lines int  // doc comment included
	root  bool // a main of a main package, or an init
}

// dir is the directory of the module's package ip, relative to its root.
func (p *program) dir(ip string) string {
	return strings.TrimPrefix(strings.TrimPrefix(ip, p.module), "/")
}

// analyse type-checks the non-test files of the module at root and walks the
// uses of functions from its roots: every main of a main package, every init,
// every package-level initialiser, and every method an interface type of the
// program may call — a named one of the module or of a package it imports, or
// a literal such as interface{ Reset() } — since a call through an interface
// names no method. When a type of the module, T or *T, implements such an
// interface, the methods its method set selects for the interface's are
// roots, promoted ones included. A method of a generic type, and any method
// named like one of a generic interface, is a root by its name alone.
func analyse(root string) (*program, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	p := &program{module: module, decls: make(map[*types.Func]funcDecl), live: make(map[*types.Func]bool)}
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  make(map[string]string),
		pkgs:  make(map[string]*types.Package),
		infos: make(map[string]*types.Info),
		files: make(map[string][]*ast.File),
		std:   importer.Default(),
	}
	p.l = l
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
		return nil, err
	}
	for ip := range l.dirs {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
	}

	var work []*types.Func
	mark := func(f *types.Func) {
		if f = f.Origin(); !p.live[f] {
			p.live[f] = true
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

	// The interfaces of the program, indexed by the name of their first
	// method; the method names of all of them and of the generic ones.
	ifaces := make(map[string][]*types.Interface)
	ifaceNames, genericNames := make(map[string]bool), make(map[string]bool)
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seenIface[it] {
			return
		}
		seenIface[it] = true
		n, _ := t.(*types.Named)
		generic := n != nil && n.TypeParams().Len() > 0
		for i := 0; i < it.NumMethods(); i++ {
			ifaceNames[it.Method(i).Name()] = true
			if generic {
				genericNames[it.Method(i).Name()] = true
			}
		}
		if !generic {
			first := it.Method(0).Name()
			ifaces[first] = append(ifaces[first], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := make(map[*types.Package]bool)
	var scopeIfaces func(p *types.Package)
	scopeIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scopeIfaces(imp)
		}
	}
	var named []*types.Named
	for ip, files := range l.files {
		info, pkg, dir := l.infos[ip], l.pkgs[ip], p.dir(ip)
		scopeIfaces(pkg)
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
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
					root := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main")
					p.decls[obj] = funcDecl{key, d, pkg, info, lines, root}
					if root {
						mark(obj)
					}
				}
			}
		}
	}
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func)
			if genericNames[m.Name()] || n.TypeParams().Len() > 0 && ifaceNames[m.Name()] {
				mark(m)
				continue
			}
			for _, it := range ifaces[m.Name()] {
				if !types.Implements(types.NewPointer(n), it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					im := it.Method(j)
					mark(ms.Lookup(im.Pkg(), im.Name()).Obj().(*types.Func))
				}
			}
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if d, ok := p.decls[f]; ok && d.decl.Body != nil {
			uses(d.info, d.decl.Body)
		}
	}
	return p, nil
}

// unreachable returns every function the module declares but its roots, and
// those no program reaches, each keyed as funcDecl.key with its lines.
func (p *program) unreachable() (funcs, dead map[string]int) {
	funcs, dead = make(map[string]int), make(map[string]int)
	for obj, d := range p.decls {
		if d.root {
			continue
		}
		funcs[d.key] = d.lines
		if !p.live[obj] {
			dead[d.key] = d.lines
		}
	}
	return funcs, dead
}

// optionSuffixes name the option types TestOptionsSetByPrograms checks.
var optionSuffixes = []string{"Config", "ConfigOf", "Options", "Spec", "Workload", "Weights", "Population"}

// unsetOptions returns every exported field of an exported option type
// declared outside bench/, keyed "<dir>.<Type>.<Field>", and those that no
// program sets from outside the field's own package — in a function the walk
// reaches or a package-level initialiser — as a composite-literal key, an
// element of an unkeyed literal, an assignment or ++/-- target, or the
// operand of &.
func (p *program) unsetOptions() (fields, unset map[string]bool) {
	keys := make(map[*types.Var]string)
	for ip, pkg := range p.l.pkgs {
		dir := p.dir(ip)
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !hasOptionSuffix(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					keys[f] = strings.TrimPrefix(dir+"."+name+"."+f.Name(), ".")
				}
			}
		}
	}
	set := make(map[*types.Var]bool)
	setBy := func(pkg *types.Package, info *types.Info, n ast.Node) {
		field := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
						set[v.Origin()] = true
					}
					return
				default:
					return
				}
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				t := info.Types[x].Type
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range x.Elts {
					var v *types.Var
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					} else {
						v = st.Field(i)
					}
					if v != nil && v.Pkg() != pkg {
						set[v.Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					field(x.X)
				}
			}
			return true
		})
	}
	for ip, files := range p.l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.VAR {
					setBy(p.l.pkgs[ip], p.l.infos[ip], d)
				}
			}
		}
	}
	for obj, d := range p.decls {
		if p.live[obj] && d.decl.Body != nil {
			setBy(d.pkg, d.info, d.decl.Body)
		}
	}
	fields, unset = make(map[string]bool), make(map[string]bool)
	for v, key := range keys {
		fields[key] = true
		if !set[v] {
			unset[key] = true
		}
	}
	return fields, unset
}

func hasOptionSuffix(name string) bool {
	for _, s := range optionSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
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

// importsAllowed lists the import edges between the module's packages, in
// their non-test files: per importing package, the packages it imports.
// Packages are named by directory, without the leading "internal/".
// TestImportLayers fails on an edge that is not listed and on a listed edge
// that is gone: the table only shrinks, and a new dependency between layers
// is a line of the diff that adds it.
var importsAllowed = map[string]string{
	"assign":              "graph obs queueing",
	"attr":                "names sketch",
	"bench":               "assign attr broadcast faults graph livenet loadgen mail mail/mailstore mst names netsim obs server sim sketch wire",
	"broadcast":           "attr graph mail mst netsim sim sketch",
	"client":              "graph mail mailerr names netsim server sim",
	"cmd/experiments":     "experiments",
	"cmd/mailbench":       "faults loadgen mail/mailstore obs placement sim",
	"cmd/mailctl":         "obs placement wire",
	"cmd/maild":           "livenet mail/mailstore placement wire",
	"core":                "assign attr broadcast client graph locind mail mst names netsim obs server sim",
	"evalsys":             "obs",
	"examples/attrsearch": "attr core graph names",
	"examples/chaos":      "faults livenet loadgen",
	"examples/failover":   "core graph names sim",
	"examples/groups":     "attr core graph names",
	"examples/livewire":   "wire",
	"examples/quickstart": "core graph names",
	"examples/reconfig":   "assign graph",
	"examples/roaming":    "core graph names",
	"experiments":         "assign attr broadcast client core evalsys graph loadgen locind mst names netsim obs queueing server sim",
	"faults":              "graph netsim sim",
	"graph":               "names",
	"livenet":             "mail mail/mailstore mailerr names obs placement sketch",
	"loadgen":             "attr broadcast client core faults graph livenet locind mail mail/mailstore mst names netsim obs placement queueing server sim sketch wire",
	"locind":              "graph mail names netsim obs server sim",
	"mail":                "clock names obs",
	"mail/mailstore":      "clock mail names sketch",
	"mst":                 "graph netsim sim",
	"netsim":              "graph obs sim",
	"placement":           "names obs",
	"server":              "graph mail mail/mailstore mailerr names netsim obs sim",
	"sim":                 "clock",
	"wire":                "attr livenet mail mailerr names obs",
}

// daemonExcluded names the packages the mail daemon must not link: the
// simulator's delivery core, its network, the load harness, the
// discrete-event kernel and the topology model with its graph algorithms.
var daemonExcluded = []string{"server", "netsim", "loadgen", "sim", "graph"}

// TestImportLayers: the import edges between the module's packages are those
// importsAllowed lists, and cmd/maild depends on none of daemonExcluded,
// directly or not.
func TestImportLayers(t *testing.T) {
	p, err := moduleProgram()
	if err != nil {
		t.Fatal(err)
	}
	edges := p.imports()
	allowed := make(map[string]bool)
	for from, tos := range importsAllowed {
		for _, to := range strings.Fields(tos) {
			allowed[from+" "+to] = true
		}
	}
	for _, e := range sortedKeys(edges) {
		if !allowed[e] {
			t.Errorf("import %q is not in importsAllowed: drop it, or list it there", e)
		}
	}
	for _, e := range sortedKeys(allowed) {
		if !edges[e] {
			t.Errorf("importsAllowed lists %q, which no longer exists", e)
		}
	}
	deps := make(map[string][]string)
	for e := range edges {
		from, to, _ := strings.Cut(e, " ")
		deps[from] = append(deps[from], to)
	}
	const daemon = "cmd/maild"
	seen := map[string]bool{daemon: true}
	for work := []string{daemon}; len(work) > 0; {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range deps[n] {
			if !seen[d] {
				seen[d] = true
				work = append(work, d)
			}
		}
	}
	for _, d := range daemonExcluded {
		if seen[d] {
			t.Errorf("%s depends on %s", daemon, d)
		}
	}
}

// imports returns the import edges between the module's packages, keyed
// "<importer> <imported>", each named as in importsAllowed.
func (p *program) imports() map[string]bool {
	name := func(ip string) string { return strings.TrimPrefix(p.dir(ip), "internal/") }
	edges := make(map[string]bool)
	for ip, pkg := range p.l.pkgs {
		for _, imp := range pkg.Imports() {
			if _, ok := p.l.pkgs[imp.Path()]; ok {
				edges[name(ip)+" "+name(imp.Path())] = true
			}
		}
	}
	return edges
}
