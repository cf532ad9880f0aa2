package main

// commutative-contract: registering an analyzer with
// AddCommutativeAnalyzer authorizes the unordered execution path to
// split its stream arbitrarily and fold the replicas back, and replica
// adoption to swap a replica in and fold the primary's old state back
// in — which is only sound if the type actually carries a fold. The
// rule checks both halves of that bargain module-wide:
//
//  1. every type passed to AddCommutativeAnalyzer (or its Filtered
//     variant) in non-test code must implement Merge with a matching
//     receiver — exactly one parameter of the registered type, so the
//     method expression fits the fold signature func(into, from T);
//  2. a type declaring Commutative() bool that is never registered
//     anywhere in the module is dead armor: the framework only honors
//     the registration-time declaration, so the method is a claim
//     nothing checks. (Types that also declare NonCommutative() are
//     exempt — that is the analyzer-set aggregator shape, reporting
//     on members rather than claiming to be one.)
//
// Test files may register throwaway doubles with inline folds (half
// the pipeline tests do), so only non-test registrations are held to
// the Merge requirement; registrations anywhere, tests included,
// count as "registered" for the dead-declaration half.

import (
	"go/ast"
	"go/types"
)

type commutativeRule struct {
	factsFor   *Module
	registered map[string]bool // "pkgpath.TypeName" -> registered commutatively
}

func (*commutativeRule) Name() string { return "commutative-contract" }

var commutativeAdders = map[string]bool{
	"AddCommutativeAnalyzer":         true,
	"AddCommutativeAnalyzerFiltered": true,
}

func (r *commutativeRule) Check(pass *Pass) []Diagnostic {
	r.ensureFacts(pass.Module)
	var diags []Diagnostic
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if pass.FileIsTest(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if t, ok := registeredArgType(info, n); ok {
					if msg := mergeContractError(t); msg != "" {
						diags = append(diags, pass.Diag(r.Name(), n.Pos(), "%s", msg))
					}
				}
			case *ast.FuncDecl:
				if named := commutativeDeclReceiver(info, n); named != nil {
					key := typeKey(named)
					if !r.registered[key] && !hasMethod(named, "NonCommutative") {
						diags = append(diags, pass.Diag(r.Name(), n.Pos(),
							"%s declares Commutative() but is never registered with AddCommutativeAnalyzer; the declaration is unchecked dead armor (register it, or drop the method)",
							named.Obj().Name()))
					}
				}
			}
			return true
		})
	}
	return diags
}

// ensureFacts scans every unit of the module — tests included — for
// commutative registrations, once per loaded module.
func (r *commutativeRule) ensureFacts(m *Module) {
	if r.factsFor == m {
		return
	}
	r.factsFor = m
	r.registered = map[string]bool{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if t, ok := registeredArgType(pkg.Info, call); ok {
					if named := namedOf(t); named != nil {
						r.registered[typeKey(named)] = true
					}
				}
				return true
			})
		}
	}
}

// registeredArgType returns the static type of the primary analyzer
// argument when call is an AddCommutativeAnalyzer{,Filtered}
// invocation (matched by name, so fixture frameworks qualify).
func registeredArgType(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	fn := calledFunc(info, call)
	if fn == nil || !commutativeAdders[fn.Name()] || len(call.Args) < 2 {
		return nil, false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Type == nil {
		return nil, false
	}
	return tv.Type, true
}

// mergeContractError checks the Merge half of the contract for a
// registered type and returns a diagnostic message, or "" when the
// contract holds.
func mergeContractError(t types.Type) string {
	named := namedOf(t)
	if named == nil {
		// Interface or anonymous type: nothing to pin a method on.
		return ""
	}
	name := named.Obj().Name()
	// The method set of the registered type must carry Merge: found on
	// *T only while T was registered means the receiver doesn't match
	// what the fold is handed.
	sel := types.NewMethodSet(t).Lookup(nil, "Merge")
	if sel == nil {
		if types.NewMethodSet(types.NewPointer(named)).Lookup(nil, "Merge") != nil {
			return name + " is registered with AddCommutativeAnalyzer by value but Merge has a pointer receiver; the fold would merge into a copy"
		}
		return name + " is registered with AddCommutativeAnalyzer but implements no Merge; the fused/unordered fold has nothing to call"
	}
	sig := sel.Obj().Type().(*types.Signature)
	if sig.Params().Len() != 1 || !types.Identical(sig.Params().At(0).Type(), t) {
		return name + " is registered with AddCommutativeAnalyzer but its Merge does not take exactly one " +
			types.TypeString(t, nil) + "; the method expression cannot serve as the fold"
	}
	return ""
}

// commutativeDeclReceiver returns the receiver's named type when decl
// is a Commutative() bool method declaration.
func commutativeDeclReceiver(info *types.Info, decl *ast.FuncDecl) *types.Named {
	if decl.Name.Name != "Commutative" || decl.Recv == nil || len(decl.Recv.List) != 1 {
		return nil
	}
	fn, ok := info.Defs[decl.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return nil
	}
	basic, ok := sig.Results().At(0).Type().(*types.Basic)
	if !ok || basic.Kind() != types.Bool {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// namedOf unwraps pointers down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeKey is the module-wide identity for a named type; string keys
// survive the same package being re-checked as a test unit.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// hasMethod reports whether the named type (or its pointer) has a
// method with the given name.
func hasMethod(named *types.Named, name string) bool {
	return types.NewMethodSet(types.NewPointer(named)).Lookup(nil, name) != nil
}
