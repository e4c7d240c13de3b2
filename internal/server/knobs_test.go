package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lccs"
	"lccs/internal/engine"
)

// TestKnobSurface pins every independently settable value the system
// offers its users and operators: the exported fields of lccs.Config,
// lccs.DurableConfig and server.Config, the JSON keys of a collection
// spec, and the flags of lccs-serve and lccs-query. A change that adds or
// removes an option shows in the golden's diff, one line per value.
func TestKnobSurface(t *testing.T) {
	var lines []string
	for _, c := range []struct {
		name string
		v    any
	}{
		{"lccs.Config", lccs.Config{}},
		{"lccs.DurableConfig", lccs.DurableConfig{}},
		{"server.Config", Config{}},
	} {
		typ := reflect.TypeOf(c.v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				lines = append(lines, c.name+" "+f.Name)
			}
		}
	}
	spec := reflect.TypeOf(engine.Spec{})
	for i := 0; i < spec.NumField(); i++ {
		key, _, _ := strings.Cut(spec.Field(i).Tag.Get("json"), ",")
		lines = append(lines, "engine.Spec "+key)
	}
	for _, cmd := range []string{"lccs-serve", "lccs-query"} {
		for _, name := range flagNames(t, "../../cmd/"+cmd+"/main.go") {
			lines = append(lines, cmd+" -"+name)
		}
	}
	sort.Strings(lines)
	checkGolden(t, "knobs.golden", lines)
}

// flagNames parses a command's source and returns the name of every flag
// it defines through the flag package: the string literal each
// flag.<Type>(name, value, usage) call takes first.
func flagNames(t *testing.T, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s defines no flags", path)
	}
	return names
}
