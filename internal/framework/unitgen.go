package framework

import (
	"strconv"
	"strings"
	"sync"

	"wsinterop/internal/artifact"
	"wsinterop/internal/xsd"
)

// unitArena owns the backing storage of one generated Unit: the unit
// value itself plus the class, field, method and parameter arrays its
// slices are carved from. Arenas recycle through a pool so the test
// hot path — one generated unit per (shape, client) — reaches a
// steady state with no per-unit allocation at all. A unit built on an
// arena carries the arena as its owner token; ReleaseUnit returns it
// to the pool once the caller is done with the unit.
type unitArena struct {
	unit    artifact.Unit
	classes []artifact.Class
	fields  []artifact.Field
	methods []artifact.Method
	params  []artifact.Param
}

var unitArenas = sync.Pool{New: func() any { return new(unitArena) }}

// grow reslices the arena arrays to zero length, growing their
// capacity to the given counts when a previous tenant's were smaller.
func (a *unitArena) grow(classes, fields, methods, params int) {
	if cap(a.classes) < classes {
		a.classes = make([]artifact.Class, 0, classes)
	}
	if cap(a.fields) < fields {
		a.fields = make([]artifact.Field, 0, fields)
	}
	if cap(a.methods) < methods {
		a.methods = make([]artifact.Method, 0, methods)
	}
	if cap(a.params) < params {
		a.params = make([]artifact.Param, 0, params)
	}
	a.classes, a.fields = a.classes[:0], a.fields[:0]
	a.methods, a.params = a.methods[:0], a.params[:0]
}

// ReleaseUnit returns an arena-built unit's backing storage to the
// pool. The caller must not touch the unit afterwards. Units without
// an owner token (hand-built in tests) are ignored.
func ReleaseUnit(u *artifact.Unit) {
	if u == nil {
		return
	}
	if a, ok := u.Owner().(*unitArena); ok {
		unitArenas.Put(a)
	}
}

// unitBuilder configures the shared artifact generation machinery
// with the code-generation style — and bugs — of one client tool.
// Every quirk is expressed as a structural transformation of the
// generated code; the artifact compiler then finds (or does not find)
// the resulting defects.
type unitBuilder struct {
	lang     artifact.TargetLanguage
	stemSfx  string // port class suffix, e.g. "Stub", "Proxy"
	unitName string

	// rawCollections marks every generated class as using raw
	// collections (Axis1/Axis2 → javac unchecked-operations warnings).
	rawCollections bool
	// lowerLocals makes deserializer bodies declare one local per
	// element named "local_" + lower-cased element name (Axis2). Two
	// elements differing only by case collapse into a duplicate local.
	lowerLocals bool
	// throwableWrapperBug makes fault-wrapper accessors reference a
	// member named after the *type* instead of the element (Axis1);
	// the member does not exist, so compilation fails.
	throwableWrapperBug bool
	// accessorCalls emits per-field accessor functions plus call sites
	// (the JScript artifact style), and drops the accessor definitions
	// of fields whose names are reserved words while keeping their call
	// sites (the JScript generator bug behind 100 compile errors).
	accessorCalls bool
	// flattenParams names the port method's parameter after the first
	// property of the parameter bean instead of a fixed name (the
	// Visual Basic style behind the method/parameter collisions).
	flattenParams bool
	// renameCaseCollisions renames members that collide
	// case-insensitively by appending a numeric suffix, the way
	// wsdl.exe does for VB.
	renameCaseCollisions bool
}

// jscriptReservedWords is the identifier set the JScript generator
// mishandles.
var jscriptReservedWords = map[string]bool{
	"function": true, "var": true, "in": true, "with": true,
	"typeof": true, "instanceof": true, "delete": true,
}

// build generates the artifact unit for an analyzed document. The
// unit and every slice it carries are carved out of one pooled arena;
// the caller hands the storage back with ReleaseUnit when done.
func (b unitBuilder) build(f *docFeatures) *artifact.Unit {
	// The throwable set only matters when the Axis1 wrapper bug is on;
	// every other generator never reads it.
	var throwables map[string]bool
	if b.throwableWrapperBug && len(f.throwableTypes) > 0 {
		throwables = make(map[string]bool, len(f.throwableTypes))
		for _, t := range f.throwableTypes {
			throwables[t] = true
		}
	}

	// Simple types map to scalars in every generator; references to
	// them must not surface as class references in the artifacts.
	var scalars map[string]bool
	beans, totalFields := 0, 0
	if f.def.Types != nil {
		nScalars := 0
		for _, sch := range f.def.Types.Schemas {
			nScalars += len(sch.SimpleTypes)
			for i := range sch.ComplexTypes {
				if sch.ComplexTypes[i].Name != "" {
					beans++
					totalFields += len(sch.ComplexTypes[i].Sequence)
				}
			}
		}
		if nScalars > 0 {
			scalars = make(map[string]bool, nScalars)
			for _, sch := range f.def.Types.Schemas {
				for i := range sch.SimpleTypes {
					scalars[sch.SimpleTypes[i].Name] = true
				}
			}
		}
	}
	nOps := 0
	for _, pt := range f.def.PortTypes {
		nOps += len(pt.Operations)
	}

	// Method capacity: the port's operations plus the per-quirk bean
	// methods — one deserializer per bean (Axis2), one accessor per
	// field and one marshaller per bean (JScript), one fault accessor
	// per bean (Axis1). Over-counting only costs arena slack.
	methodsCap := nOps
	if b.lowerLocals {
		methodsCap += beans
	}
	if b.accessorCalls {
		methodsCap += beans + totalFields
	}
	if b.throwableWrapperBug {
		methodsCap += beans
	}

	a := unitArenas.Get().(*unitArena)
	a.grow(1+beans, totalFields, methodsCap, nOps)
	u := &a.unit
	*u = artifact.Unit{Language: b.lang, Name: b.unitName}
	u.SetOwner(a)

	// Slot 0 is reserved for the port class (Unit.PortClass
	// convention); beans fill in behind it with no re-copy.
	a.classes = append(a.classes, artifact.Class{})
	if f.def.Types != nil {
		for _, sch := range f.def.Types.Schemas {
			for i := range sch.ComplexTypes {
				ct := &sch.ComplexTypes[i]
				if ct.Name == "" {
					continue
				}
				a.classes = append(a.classes, b.beanClass(ct, throwables[ct.Name], scalars, &a.fields, &a.methods))
			}
		}
	}
	u.Classes = a.classes[:len(a.classes):len(a.classes)]

	port := &u.Classes[0]
	port.Name = b.unitName + b.stemSfx
	port.NestingDepth = f.maxNesting
	port.UsesRawCollections = b.rawCollections
	pstart := len(a.methods)
	for _, pt := range f.def.PortTypes {
		for _, op := range pt.Operations {
			a.methods = append(a.methods, b.portMethod(f, op.Name, &a.params))
		}
	}
	if n := len(a.methods) - pstart; n > 0 {
		port.Methods = a.methods[pstart : pstart+n : pstart+n]
	}
	return u
}

// portMethod generates one invocable proxy method, carving its
// parameter list from the arena's parameter array.
func (b unitBuilder) portMethod(f *docFeatures, opName string, params *[]artifact.Param) artifact.Method {
	paramType, firstField := operationParameter(f, opName)
	paramName := "input"
	if b.flattenParams && firstField != "" {
		paramName = firstField
	}
	pstart := len(*params)
	*params = append(*params, artifact.Param{Name: paramName, Type: paramType})
	m := artifact.Method{
		Name:   opName,
		Params: (*params)[pstart : pstart+1 : pstart+1],
		Return: paramType,
	}
	return m
}

// beanClass generates one data class, applying the configured
// code-generation style. scalars lists simple-type names that map to
// built-in scalars rather than generated classes.
func (b unitBuilder) beanClass(ct *xsd.ComplexType, throwable bool, scalars map[string]bool, farena *[]artifact.Field, marena *[]artifact.Method) artifact.Class {
	cls := artifact.Class{
		Name:               ct.Name,
		UsesRawCollections: b.rawCollections,
	}

	// This class's fields and methods are runs carved out of the
	// unit-wide arenas; build sized them up front, so the appends stay
	// in place and each carve is a cap-limited subslice, never an
	// allocation.
	fstart := len(*farena)

	// The case-collision map is only consulted by the wsdl.exe rename
	// quirk; skip the map (and the per-field ToLower) otherwise.
	var seen map[string]bool
	if b.renameCaseCollisions {
		seen = make(map[string]bool, len(ct.Sequence))
	}
	for i := range ct.Sequence {
		el := &ct.Sequence[i]
		name := el.Name
		if name == "" {
			// Reference particle: the tools that reach this point map
			// it to an opaque payload member.
			name = "payload" + lowerFirst(el.Ref.Local)
		}
		if b.renameCaseCollisions {
			base := name
			for n := 2; seen[strings.ToLower(name)]; n++ {
				name = base + "_" + strconv.Itoa(n)
			}
			seen[strings.ToLower(name)] = true
		}

		typeName := ""
		if el.Inline == nil && !el.Type.IsZero() && !xsd.IsBuiltin(el.Type) && !scalars[el.Type.Local] {
			typeName = el.Type.Local
		}
		*farena = append(*farena, artifact.Field{Name: name, Type: typeName})
	}
	fields := (*farena)[fstart:len(*farena):len(*farena)]
	cls.Fields = fields
	mstart := len(*marena)

	if b.lowerLocals && len(fields) > 0 {
		locals := make([]string, 0, len(fields))
		for i := range fields {
			locals = append(locals, "local_"+strings.ToLower(fields[i].Name))
		}
		*marena = append(*marena, artifact.Method{
			Name:   "parse" + ct.Name,
			Locals: locals,
		})
	}

	if b.accessorCalls {
		calls := make([]string, 0, len(fields))
		for i := range fields {
			fn := fields[i].Name
			accessor := "get_" + fn
			calls = append(calls, accessor)
			if jscriptReservedWords[fn] {
				continue // the bug: call emitted, definition skipped
			}
			*marena = append(*marena, artifact.Method{
				Name:      accessor,
				FieldRefs: []string{fn},
			})
		}
		*marena = append(*marena, artifact.Method{
			Name:  "marshal" + ct.Name,
			Calls: calls,
		})
	}

	if throwable && b.throwableWrapperBug {
		// Axis1 names the wrapper attribute after the element but the
		// generated accessor references a member named after the type:
		// an unresolved member reference.
		*marena = append(*marena, artifact.Method{
			Name:      "getFaultInfo",
			FieldRefs: []string{lowerFirst(ct.Name)},
		})
	}
	if n := len(*marena) - mstart; n > 0 {
		cls.Methods = (*marena)[mstart : mstart+n : mstart+n]
	}
	return cls
}

// operationParameter resolves the bean type name and its first
// property for the wrapped input element of an operation.
func operationParameter(f *docFeatures, opName string) (typeName, firstField string) {
	if f.def.Types == nil {
		return "", ""
	}
	for _, pt := range f.def.PortTypes {
		for _, op := range pt.Operations {
			if op.Name != opName || op.Input.Message == "" {
				continue
			}
			m := f.def.Message(op.Input.Message)
			if m == nil || len(m.Parts) == 0 {
				continue
			}
			// rpc-literal: the part references the type directly.
			if m.Parts[0].Element.IsZero() && !m.Parts[0].Type.IsZero() {
				q := m.Parts[0].Type
				if xsd.IsBuiltin(q) {
					return "", ""
				}
				if ct, ok := f.def.Types.ComplexType(q); ok {
					if len(ct.Sequence) > 0 {
						return ct.Name, ct.Sequence[0].Name
					}
					return ct.Name, ""
				}
				return q.Local, ""
			}
			el, ok := f.def.Types.Element(m.Parts[0].Element)
			if !ok || el.Inline == nil || len(el.Inline.Sequence) == 0 {
				continue
			}
			wrapped := el.Inline.Sequence[0]
			// Descend through anonymous envelope nesting (the
			// complexity-variant wrappers) to the first typed leaf.
			for wrapped.Type.IsZero() && wrapped.Inline != nil && len(wrapped.Inline.Sequence) > 0 {
				wrapped = wrapped.Inline.Sequence[0]
			}
			if wrapped.Type.IsZero() || xsd.IsBuiltin(wrapped.Type) {
				return "", ""
			}
			ct, ok := f.def.Types.ComplexType(wrapped.Type)
			if !ok {
				return wrapped.Type.Local, ""
			}
			if len(ct.Sequence) > 0 {
				return ct.Name, ct.Sequence[0].Name
			}
			return ct.Name, ""
		}
	}
	return "", ""
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}
