package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireComplete checks that every field of a benchmark's state struct is
// carried by its wire codec: reachable from the encode path AND
// rebuilt on the decode path, or annotated with a reasoned allow. The
// checkpoint layer serializes committed state exclusively through
// WireCodec.EncodeState/DecodeState (engine/checkpoint.go), so a field
// the codec silently drops is a field that is wrong after every resume
// and every migration — and the byte-identity tests only catch it if
// some benchmark input happens to make the dropped field observable.
//
// Root conventions (how a package declares its state struct S):
//
//   - EncodeState whose body type-asserts to a package-local struct
//     marks that struct as S and the function as an encode root;
//   - a Wire method on a package-local struct marks its receiver as S
//     and the method as an encode root (the trackutil pattern, where
//     the benchmark codecs delegate to Cloud.Wire/WireCloud.Live);
//   - DecodeState and Live methods are decode roots.
//
// EncodeState bodies that assert to a *foreign* struct are skipped: the
// owning package's own Wire/Live carry the obligation there. From the
// roots the check walks the package-local call graph (callgraph.go) and
// collects, per field of S: encode coverage — any read of the field on
// the encode closure — and decode coverage — an assignment to the
// field, a composite-literal key, the destination of copy(), or a
// json/gob Unmarshal/Decode into S (which covers the exported,
// un-`json:"-"`-tagged fields).
//
// Soundness: reflection-based encoding of S itself (json.Marshal(st))
// covers only exported fields; fields carried through interface or
// cross-package calls the local call graph cannot see need an allow.
// A field that is deliberately not wire-carried (derived caches,
// scratch buffers, process-local identity) carries its allow on the
// field declaration, which is where the next reader looks.
var WireComplete = &Analyzer{
	Name: "wirecomplete",
	Doc:  "checks that every benchmark state-struct field is carried by the wire codec encode AND decode paths (the checkpoint/resume contract)",
	Run:  runWireComplete,
}

func runWireComplete(p *Pass) error {
	if p.Pkg.Types == nil {
		return nil
	}
	sums := p.summaries()

	// Encode roots per state struct, and the shared decode roots.
	encRoots := map[*types.TypeName][]*types.Func{}
	var decRoots []*types.Func
	for fn, fd := range sums.decls {
		switch fd.Name.Name {
		case "EncodeState":
			for _, tn := range assertedLocalStructs(p, fd) {
				encRoots[tn] = append(encRoots[tn], fn)
			}
		case "Wire":
			if tn := receiverStruct(p, fd); tn != nil {
				encRoots[tn] = append(encRoots[tn], fn)
			}
		case "DecodeState", "Live":
			decRoots = append(decRoots, fn)
		}
	}
	if len(encRoots) == 0 {
		return nil
	}
	decodeClosure := sums.reachableDecls(decRoots)

	for tn, roots := range encRoots {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		fields := map[*types.Var]bool{}
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = true
		}
		encCovered := map[*types.Var]bool{}
		for _, fd := range sums.reachableDecls(roots) {
			collectFieldReads(p, fd, fields, encCovered)
		}
		decCovered := map[*types.Var]bool{}
		for _, fd := range decodeClosure {
			collectFieldWrites(p, fd, tn, fields, decCovered)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			enc, dec := encCovered[f], decCovered[f]
			switch {
			case !enc && !dec:
				p.Reportf(f.Pos(), "field %s.%s is not carried by the wire codec: neither the encode path (Wire/EncodeState) reads it nor the decode path (Live/DecodeState) rebuilds it; checkpoint resume silently drops it", tn.Name(), f.Name())
			case !enc:
				p.Reportf(f.Pos(), "field %s.%s is not read by the wire codec encode path (Wire/EncodeState); its value is lost across checkpoint resume", tn.Name(), f.Name())
			case !dec:
				p.Reportf(f.Pos(), "field %s.%s is not rebuilt by the wire codec decode path (Live/DecodeState); restored state leaves it zero", tn.Name(), f.Name())
			}
		}
	}
	return nil
}

// assertedLocalStructs returns the package-local named structs that fd's
// body type-asserts an interface value to (the EncodeState/DecodeState
// convention for naming the state struct).
func assertedLocalStructs(p *Pass, fd *ast.FuncDecl) []*types.TypeName {
	var out []*types.TypeName
	seen := map[*types.TypeName]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ta, ok := n.(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil {
			return true
		}
		tn, _ := namedStruct(p.TypeOf(ta.Type))
		if tn == nil || tn.Pkg() != p.Pkg.Types || seen[tn] {
			return true
		}
		seen[tn] = true
		out = append(out, tn)
		return true
	})
	return out
}

// receiverStruct resolves fd's receiver to a package-local named
// struct, or nil.
func receiverStruct(p *Pass, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil
	}
	tn, _ := namedStruct(p.TypeOf(fd.Recv.List[0].Type))
	if tn == nil || tn.Pkg() != p.Pkg.Types {
		return nil
	}
	return tn
}

// collectFieldReads marks every field of the target set that fd
// mentions through a selector, plus all exported fields when fd
// reflects over a whole value of the struct (json.Marshal(st) and
// friends).
func collectFieldReads(p *Pass, fd *ast.FuncDecl, fields map[*types.Var]bool, covered map[*types.Var]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if f := structField(p, n); f != nil && fields[f] {
				covered[f] = true
			}
		case *ast.CallExpr:
			if isReflectiveCodecCall(n) {
				for _, arg := range n.Args {
					markReflected(p, arg, fields, covered)
				}
			}
		}
		return true
	})
}

// collectFieldWrites marks fields of tn's struct that fd writes: as
// assignment targets (including element/index writes st.f[i] = v),
// composite-literal keys, copy() destinations, and whole-struct
// reflective decodes (json.Unmarshal(b, &st)).
func collectFieldWrites(p *Pass, fd *ast.FuncDecl, tn *types.TypeName, fields map[*types.Var]bool, covered map[*types.Var]bool) {
	markTarget := func(e ast.Expr) {
		if f := writtenField(p, e); f != nil && fields[f] {
			covered[f] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markTarget(lhs)
			}
		case *ast.CompositeLit:
			if ctn, _ := namedStruct(p.TypeOf(n)); ctn == tn {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							markFieldByName(fields, covered, key.Name)
						}
					} else {
						// Positional literal: every field in order.
						for f := range fields {
							covered[f] = true
						}
						break
					}
				}
			}
		case *ast.CallExpr:
			if calleeName(n) == "copy" && len(n.Args) == 2 {
				markTarget(n.Args[0])
			}
			if isReflectiveCodecCall(n) {
				for _, arg := range n.Args {
					markReflected(p, arg, fields, covered)
				}
			}
		}
		return true
	})
}

// writtenField resolves a write target to the struct field it stores
// into, seeing through index, slice, and star wrappers: st.f = v,
// st.f[i] = v, copy(st.f[:], src) all write st.f.
func writtenField(p *Pass, e ast.Expr) *types.Var {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			return structField(p, x)
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isReflectiveCodecCall matches the stdlib reflective codec entry
// points that read or write every (exported) field of their argument.
func isReflectiveCodecCall(call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "Marshal", "Unmarshal", "Encode", "Decode", "MarshalIndent":
		return true
	}
	return false
}

// markReflected covers the exported, non-`json:"-"` fields of the
// target set when arg is (a pointer to) the state struct itself.
func markReflected(p *Pass, arg ast.Expr, fields map[*types.Var]bool, covered map[*types.Var]bool) {
	t := p.TypeOf(arg)
	if t == nil {
		return
	}
	if u, ok := unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
		t = p.TypeOf(u.X)
	}
	tn, st := namedStruct(t)
	if tn == nil || st == nil {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !fields[f] || !f.Exported() {
			continue
		}
		if tagSkipsJSON(st.Tag(i)) {
			continue
		}
		covered[f] = true
	}
}

// markFieldByName covers the field with the given name, if present.
func markFieldByName(fields map[*types.Var]bool, covered map[*types.Var]bool, name string) {
	for f := range fields {
		if f.Name() == name {
			covered[f] = true
			return
		}
	}
}

// tagSkipsJSON reports whether a struct tag opts the field out of
// encoding (`json:"-"`).
func tagSkipsJSON(tag string) bool {
	v, ok := lookupTag(tag, "json")
	return ok && (v == "-" || strings.HasPrefix(v, "-,"))
}

// lookupTag is a minimal reflect.StructTag.Lookup (kept local to avoid
// importing reflect for one string walk).
func lookupTag(tag, key string) (string, bool) {
	for tag != "" {
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		if tag == "" {
			break
		}
		i = 0
		for i < len(tag) && tag[i] > ' ' && tag[i] != ':' && tag[i] != '"' {
			i++
		}
		if i == 0 || i+1 >= len(tag) || tag[i] != ':' || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		tag = tag[i+1:]
		i = 1
		for i < len(tag) && tag[i] != '"' {
			if tag[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(tag) {
			break
		}
		value := tag[1:i]
		tag = tag[i+1:]
		if name == key {
			return value, true
		}
	}
	return "", false
}
