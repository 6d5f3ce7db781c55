package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// ErrWrap checks the error-wrapping discipline in one package: fmt.Errorf
// must wrap a formatted error with %w (a %v/%s copy breaks errors.Is/As
// matching downstream — callers test for ErrAborted, ErrRemoteRead,
// CrashError through arbitrarily deep wrapping), error equality must go
// through errors.Is (a == comparison misses wrapped sentinels), and error
// type dispatch through errors.As. CheckModule runs it on the packages
// whose errors cross the public failure contract (errwrapScope).
func ErrWrap(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
	}
	errType := types.Universe.Lookup("error").Type()
	errIface := errType.Underlying().(*types.Interface)
	isErr := func(e ast.Expr) bool {
		tv, ok := pkg.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return false
		}
		return types.Implements(tv.Type, errIface)
	}

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfCall(pkg.Info, n, isErr, report)
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && isErr(n.X) && isErr(n.Y) {
					report(n.Pos(), "error compared with %s: use errors.Is so wrapped errors still match", n.Op)
				}
			case *ast.TypeAssertExpr:
				// Covers both x.(T) and switch x.(type) — the parser puts
				// a TypeAssertExpr in the TypeSwitchStmt header.
				tv, ok := pkg.Info.Types[n.X]
				if ok && tv.Type != nil && types.Identical(tv.Type, errType) {
					report(n.Pos(), "type assertion on an error value: use errors.As so wrapped errors still match")
				}
			}
			return true
		})
	}
	return diags
}

// checkErrorfCall flags fmt.Errorf calls that format an error-typed
// argument with anything but %w (or the type/pointer verbs %T and %p,
// which do not render the error's content).
func checkErrorfCall(info *types.Info, call *ast.CallExpr, isErr func(ast.Expr) bool, report func(token.Pos, string, ...any)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" || obj.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	args := call.Args[1:]
	for _, v := range parseVerbs(format) {
		if v.verb == 'w' || v.verb == 'T' || v.verb == 'p' || v.verb == '%' {
			continue
		}
		if v.argIndex < 0 || v.argIndex >= len(args) {
			continue
		}
		if isErr(args[v.argIndex]) {
			report(args[v.argIndex].Pos(), "fmt.Errorf formats an error with %%%c: use %%w so callers can match it with errors.Is/As", v.verb)
		}
	}
}

type verbUse struct {
	verb     rune
	argIndex int
}

// parseVerbs maps each format verb to the variadic argument it consumes,
// following fmt's rules closely enough for linting: flags, star
// width/precision (each star consumes an argument), and explicit [n]
// argument indexes.
func parseVerbs(format string) []verbUse {
	var uses []verbUse
	arg := 0
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		if i >= len(runes) {
			break
		}
		if runes[i] == '%' {
			continue
		}
		// Flags.
		for i < len(runes) && (runes[i] == '#' || runes[i] == '0' || runes[i] == '+' || runes[i] == '-' || runes[i] == ' ') {
			i++
		}
		// Width.
		for i < len(runes) && (runes[i] >= '0' && runes[i] <= '9') {
			i++
		}
		if i < len(runes) && runes[i] == '*' {
			arg++
			i++
		}
		// Precision.
		if i < len(runes) && runes[i] == '.' {
			i++
			for i < len(runes) && (runes[i] >= '0' && runes[i] <= '9') {
				i++
			}
			if i < len(runes) && runes[i] == '*' {
				arg++
				i++
			}
		}
		// Explicit argument index [n].
		if i < len(runes) && runes[i] == '[' {
			j := i + 1
			for j < len(runes) && runes[j] != ']' {
				j++
			}
			if j < len(runes) {
				if n, err := strconv.Atoi(string(runes[i+1 : j])); err == nil && n > 0 {
					arg = n - 1
				}
				i = j + 1
			}
		}
		if i >= len(runes) {
			break
		}
		uses = append(uses, verbUse{verb: runes[i], argIndex: arg})
		arg++
	}
	return uses
}
