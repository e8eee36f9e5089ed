package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KeepMarker is the doc-comment directive that roots code no
// production path reaches — a test oracle, a fault-injection harness —
// with the reason written down:
//
//	//efd:keep <reason>
//
// On a type declaration it covers every method of the type.
const KeepMarker = "//efd:keep"

// DeadCode reports module functions that no production path reaches.
// The roots are main and init; the exported functions and methods of
// the importable library packages (no internal path segment, not
// package main); methods that satisfy an interface declared outside
// the module, which the standard library may call (error, fmt.Stringer,
// http.Handler, io.Writer, …), plus Unwrap/Is/As on error types, which
// package errors finds by anonymous type assertion; functions named by
// package-level var initializers; and //efd:keep code. Everything the
// call graph does not reach from a root is reported. Test files are
// never loaded, so a function only tests call is dead too. A keep on
// code the other roots already reach is stale, and a keep without a
// reason is malformed; both are reported.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every module function is reachable from main, init, the library API, a stdlib-interface method, a package-level initializer, or a reviewed //efd:keep <reason>",
	Run:  runDeadCode,
}

func runDeadCode(pass *Pass) {
	emitOwned(pass, pass.Mod.deadDiags())
}

// deadDiags computes the module's dead-code findings once per run.
func (m *Module) deadDiags() []ownedDiag {
	m.deadOnce.Do(func() { m.dead = buildDeadDiags(m.Pkgs, m.Graph()) })
	return m.dead
}

// keep is one //efd:keep directive and the functions it covers.
type keep struct {
	pkg    *Package
	pos    token.Pos
	name   string
	reason string
	funcs  []*types.Func
}

func buildDeadDiags(pkgs []*Package, g *CallGraph) []ownedDiag {
	var out []ownedDiag
	report := func(pkg *Package, pos token.Pos, format string, args ...any) {
		out = append(out, ownedDiag{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	roots := append([]*types.Func(nil), g.initRefs...)
	ifaceRoots := externalIfaceMethods(pkgs, g)
	for _, fn := range g.Order {
		if isEntryPoint(fn) || isLibraryAPI(g.Funcs[fn]) || ifaceRoots[fn] {
			roots = append(roots, fn)
		}
	}
	parent := make(map[*types.Func]*types.Func)
	reached := g.bfs(roots, func(e Edge) bool {
		parent[e.Callee] = e.Caller
		return true
	})

	// Keeps root what production misses; a keep whose functions
	// production already reaches is stale.
	for _, k := range collectKeeps(pkgs, g) {
		roots = append(roots, k.funcs...)
		stale := true
		for _, fn := range k.funcs {
			stale = stale && reached[fn]
		}
		switch {
		case k.reason == "":
			report(k.pkg, k.pos, "%s on %s needs a reason: %s <reason>", KeepMarker, k.name, KeepMarker)
		case stale && len(k.funcs) == 1:
			report(k.pkg, k.pos, "stale %s on %s: production code reaches it (%s); delete the marker",
				KeepMarker, k.name, chainString(parent, k.funcs[0]))
		case stale:
			report(k.pkg, k.pos, "stale %s on %s: production code reaches all of its methods; delete the marker",
				KeepMarker, k.name)
		}
	}
	live := g.bfs(roots, func(Edge) bool { return true })
	for _, fn := range g.Order {
		if fi := g.Funcs[fn]; !live[fn] {
			report(fi.Pkg, fi.Decl.Name.Pos(),
				"%s is unreachable from every production root: delete it, give it a production caller, or mark it %s <reason>",
				FuncDisplayName(fn), KeepMarker)
		}
	}
	return out
}

// collectKeeps gathers the keep markers on function and type
// declarations; a type's keep covers the methods declared on it.
func collectKeeps(pkgs []*Package, g *CallGraph) []*keep {
	var keeps []*keep
	byType := make(map[*types.TypeName]*keep)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					reason, marked := keepReason(doc)
					if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok && marked {
						k := &keep{pkg: pkg, pos: ts.Name.Pos(), name: "type " + tn.Name(), reason: reason}
						byType[tn] = k
						keeps = append(keeps, k)
					}
				}
			}
		}
	}
	for _, fn := range g.Order {
		fi := g.Funcs[fn]
		if reason, marked := keepReason(fi.Decl.Doc); marked {
			keeps = append(keeps, &keep{pkg: fi.Pkg, pos: fi.Decl.Name.Pos(), name: FuncDisplayName(fn), reason: reason, funcs: []*types.Func{fn}})
		} else if n := recvNamed(fn); n != nil && byType[n.Obj()] != nil {
			byType[n.Obj()].funcs = append(byType[n.Obj()].funcs, fn)
		}
	}
	return keeps
}

// keepReason reports whether the comment group carries the keep
// marker, and its reason (empty when missing).
func keepReason(cg *ast.CommentGroup) (reason string, marked bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == KeepMarker {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, KeepMarker+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// isEntryPoint reports whether the runtime calls fn: main or init.
func isEntryPoint(fn *types.Func) bool {
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return fn.Name() == "init" || (fn.Name() == "main" && fn.Pkg().Name() == "main")
}

// isLibraryAPI reports whether fn is exported from an importable
// library package, where code outside the module may call it.
func isLibraryAPI(fi *FuncInfo) bool {
	return fi.Fn.Exported() && fi.Pkg.Types.Name() != "main" && !pathHasSegment(fi.Pkg.Path, "internal")
}

// recvNamed returns the declared (uninstantiated) receiver type of a
// method, or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if n := namedType(recv.Type()); n != nil {
		return n.Origin()
	}
	return nil
}

// errorsProtocol names the methods package errors discovers by
// asserting to an unnamed interface, so no declared interface roots
// them.
var errorsProtocol = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// externalIfaceMethods returns the module methods code outside the
// module may call through an interface: each method whose receiver
// type satisfies an interface declared outside the module (or error)
// that has a method of that name, and the errors protocol methods of
// error types.
func externalIfaceMethods(pkgs []*Package, g *CallGraph) map[*types.Func]bool {
	byMethod := externalInterfaces(pkgs)
	roots := make(map[*types.Func]bool)
	for _, fn := range g.Order {
		n := recvNamed(fn)
		if n == nil || n.TypeParams().Len() > 0 {
			continue
		}
		recv := types.NewPointer(n)
		if errorsProtocol[fn.Name()] && types.Implements(recv, errorIface) {
			roots[fn] = true
			continue
		}
		for _, iface := range byMethod[fn.Name()] {
			if types.Implements(recv, iface) {
				roots[fn] = true
				break
			}
		}
	}
	return roots
}

// externalInterfaces indexes by method name the universe error and
// every exported non-generic interface declared in a package outside
// the module that the loaded packages import, directly or not.
func externalInterfaces(pkgs []*Package) map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(errorIface)
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		seen[pkg.Types] = true
	}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			visit(imp)
			if path := imp.Path(); path == pkgs[0].ModPath || strings.HasPrefix(path, pkgs[0].ModPath+"/") {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(iface)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return byMethod
}
