package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Purity audits the identity/memoization contract from PR 6–7: every
// workload.Identifier implementation, every memo-key constructor and
// every result-cache key constructor must be a pure function of its
// inputs. These functions' outputs are cache keys and journal cell
// identities — if one mutates state, reads a mutable global, iterates a
// map, or formats a pointer (addresses are per-process), two runs of
// the same (config, seed) disagree about which cells are "the same",
// and request coalescing, memoization, the disk cache and resume all
// silently fracture.
//
// Roots are methods named Identity() string and functions returning a
// type named memoKey or resultcache.Key. The audit walks everything
// statically reachable from a root through module-local calls; calls
// through interfaces or function values are a documented precision gap
// (module.go).
var Purity = &Analyzer{
	Name:      "purity",
	Doc:       "require Identity(), memo-key and cache-key functions (and everything they call) to be side-effect-free and address-independent",
	Tier:      TierInterprocedural,
	Invariant: "identity, memo-key and cache-key functions are pure: no non-local writes, no map iteration, no mutable-global reads, no address-dependent formatting",
	Why:       "identities are cache keys and journal cell names; an impure identity makes coalescing, memoization and resume disagree about which cells match",
	Run:       runPurity,
}

// resultcachePkg defines Key, the cross-process cell address: a
// function deriving one is a purity root like a memoKey constructor.
const resultcachePkg = "asmp/internal/resultcache"

func runPurity(p *Pass) {
	if p.Mod == nil {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || !isPurityRoot(fn) {
				continue
			}
			visited := map[*types.Func]bool{fn: true}
			p.auditPurity(fn, funcDisplayName(fn), visited)
		}
	}
}

// isPurityRoot reports whether fn is an identity or cell-key function:
// a method Identity() string, or a function whose first result is a
// type named memoKey (the in-memory cell key) or resultcache.Key (the
// cross-process cache address).
func isPurityRoot(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if fn.Name() == "Identity" && sig.Recv() != nil &&
		sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	if sig.Results().Len() >= 1 {
		if named, ok := sig.Results().At(0).Type().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "memoKey" ||
				obj.Name() == "Key" && obj.Pkg() != nil && obj.Pkg().Path() == resultcachePkg {
				return true
			}
		}
	}
	return false
}

// auditPurity checks fn's body and recurses into its module-local
// callees.
func (p *Pass) auditPurity(fn *types.Func, root string, visited map[*types.Func]bool) {
	facts := p.Mod.facts(fn)
	if facts == nil {
		return
	}
	p.checkBodyPurity(facts, root)
	for _, callee := range facts.calls {
		if visited[callee] {
			continue
		}
		visited[callee] = true
		p.auditPurity(callee, root, visited)
	}
}

// checkBodyPurity reports every impure construct lexically inside one
// function reachable from root. Positions are deduplicated module-wide
// (two roots sharing a helper report its impurities once).
func (p *Pass) checkBodyPurity(facts *funcFacts, root string) {
	info := facts.pkg.Info
	body := facts.decl.Body

	impure := func(n ast.Node, format string, args ...any) {
		if p.Mod.purityReported[n.Pos()] {
			return
		}
		p.Mod.purityReported[n.Pos()] = true
		p.Reportf(n.Pos(), format+" (reached from %s, which must be pure)", append(args, root)...)
	}

	// Idents written to, so the mutable-global *read* check does not
	// double-report write targets.
	written := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := rootIdent(lhs); id != nil {
					written[id] = true
				}
			}
		case *ast.IncDecStmt:
			if id := rootIdent(n.X); id != nil {
				written[id] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if why := impureWrite(info, lhs); why != "" {
					impure(lhs, "identity function writes %s", why)
				}
			}
		case *ast.IncDecStmt:
			if why := impureWrite(info, n.X); why != "" {
				impure(n.X, "identity function writes %s", why)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					impure(n, "identity function iterates a map: iteration order is randomized per run")
				}
			}
		case *ast.Ident:
			if written[n] {
				return true
			}
			if v, ok := info.Uses[n].(*types.Var); ok && isPackageLevelMutable(v) {
				impure(n, "identity function reads package-level variable %s: mutable global state is not part of the identity's inputs", v.Name())
			}
		case *ast.CallExpr:
			p.checkCallPurity(facts, n, impure)
		}
		return true
	})
}

// checkCallPurity flags calls to known-impure standard-library
// functions and address-dependent fmt formatting.
func (p *Pass) checkCallPurity(facts *funcFacts, call *ast.CallExpr, impure func(ast.Node, string, ...any)) {
	info := facts.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p.Mod.facts(fn) != nil {
		return // module-local: the DFS audits its body directly
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case impureStdPkgs[path]:
		impure(call, "identity function calls %s.%s: side-effecting or nondeterministic", fn.Pkg().Name(), name)
	case path == "time" && wallClockNames[name]:
		impure(call, "identity function calls time.%s: wall-clock state is not part of the identity's inputs", name)
	case path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
		impure(call, "identity function calls fmt.%s: writing output is a side effect", name)
	case path == "fmt" && (name == "Sprintf" || name == "Errorf"):
		p.checkAddressFormat(info, call, true, impure)
	case path == "fmt" && (name == "Sprint" || name == "Sprintln"):
		p.checkAddressFormat(info, call, false, impure)
	}
}

// impureStdPkgs are standard-library packages whose calls are
// side-effecting or nondeterministic by nature.
var impureStdPkgs = map[string]bool{
	"os":           true,
	"os/exec":      true,
	"io":           true,
	"io/ioutil":    true,
	"bufio":        true,
	"net":          true,
	"net/http":     true,
	"sync":         true,
	"sync/atomic":  true,
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// checkAddressFormat flags fmt string-building calls whose %v-class
// operands carry pointers, funcs or channels: those print process-
// specific addresses, so the "same" value formats differently per run.
func (p *Pass) checkAddressFormat(info *types.Info, call *ast.CallExpr, formatted bool, impure func(ast.Node, string, ...any)) {
	args := call.Args
	if formatted {
		if len(args) < 2 {
			return
		}
		lit, ok := ast.Unparen(args[0]).(*ast.BasicLit)
		if !ok {
			return // non-literal format: cannot reason
		}
		verbs, explicit := printfVerbs(lit.Value)
		if explicit {
			return
		}
		for _, v := range verbs {
			if v.verb != 'v' {
				continue
			}
			argIdx := 1 + v.arg
			if argIdx >= len(args) {
				continue
			}
			if t := info.TypeOf(args[argIdx]); t != nil && containsAddress(t, nil) {
				impure(args[argIdx], "identity function formats %s with %%v: pointer/func/chan values print process-specific addresses; format the pointed-to fields explicitly", t.String())
			}
		}
		return
	}
	for _, a := range args {
		if t := info.TypeOf(a); t != nil && containsAddress(t, nil) {
			impure(a, "identity function formats %s with fmt.Sprint: pointer/func/chan values print process-specific addresses", t.String())
		}
	}
}

// containsAddress reports whether formatting a value of type t with %v
// can print a memory address: the type is, or transitively contains, a
// pointer, func or channel — unless it stringifies itself (Stringer or
// error), in which case %v uses that method.
func containsAddress(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	if hasStringMethod(t) {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Interface:
		// Interfaces may hold anything, including pointers; conservative.
		_ = u
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsAddress(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Slice:
		return containsAddress(u.Elem(), seen)
	case *types.Array:
		return containsAddress(u.Elem(), seen)
	case *types.Map:
		return containsAddress(u.Key(), seen) || containsAddress(u.Elem(), seen)
	}
	return false
}

// hasStringMethod reports whether t (or *t) has String() string or
// Error() string — fmt will call it instead of printing addresses.
func hasStringMethod(t types.Type) bool {
	for _, name := range [2]string{"String", "Error"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if m, ok := obj.(*types.Func); ok {
			sig := m.Type().(*types.Signature)
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
				return true
			}
		}
	}
	return false
}

// impureWrite describes why assigning through lhs mutates non-local
// state, or "" when the write is local. Local value writes (o.Field =
// x where o is a local struct value) are pure; writes through any
// pointer, into any map, or to a package-level variable are not.
func impureWrite(info *types.Info, lhs ast.Expr) string {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return ""
		}
		if v, ok := identVar(info, e); ok && isPackageLevelMutable(v) {
			return "package-level variable " + v.Name()
		}
		return ""
	case *ast.StarExpr:
		return "through a pointer dereference"
	case *ast.SelectorExpr:
		if t := info.TypeOf(e.X); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return "a field through pointer " + exprName(e.X)
			}
		}
		return impureWrite(info, e.X)
	case *ast.IndexExpr:
		if t := info.TypeOf(e.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				return "into map " + exprName(e.X)
			case *types.Pointer:
				return "through pointer " + exprName(e.X)
			}
		}
		return impureWrite(info, e.X)
	}
	return ""
}

// exprName renders a short name for the expression being written
// through ("b.opt", "cache") for diagnostics.
func exprName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprName(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprName(x.X)
	case *ast.IndexExpr:
		return exprName(x.X) + "[...]"
	}
	return "expression"
}

// identVar resolves an identifier to the variable it names.
func identVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// isPackageLevelMutable reports whether v is a package-level variable
// (not a field, parameter or local).
func isPackageLevelMutable(v *types.Var) bool {
	if v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// rootIdent returns the leftmost identifier of an assignable expression
// chain (a in a.b[i].c), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcDisplayName renders fn for diagnostics: pkg.Func or
// (*pkg.Type).Method.
func funcDisplayName(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return "(" + recv + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
