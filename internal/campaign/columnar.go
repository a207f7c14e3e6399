package campaign

// Columnar shard results (DESIGN.md §10). The streaming test stage
// used to accumulate one full TestResult struct per (service ×
// client) cell — three interned-elsewhere strings and two outcome
// structs of which the classification fold reads only five booleans.
// At 79 629 cells that struct traffic dominated shard memory. Each
// service row is now a columnar array of packed outcome codes, one
// byte per client slot; the cell's identity (server, client, class)
// is implicit in its coordinates and materialized back into a
// TestResult only where a consumer genuinely needs the struct form:
// the Failures index and the public RunTest API.

// outcomeCode packs one classified test outcome: the five
// classification bits the fold reads, plus the executed bit (clear on
// memo-served cells). The cell journal persists the byte as is.
type outcomeCode uint8

const (
	codeGenWarning outcomeCode = 1 << iota
	codeGenError
	codeCompileRan
	codeCompileWarning
	codeCompileError
	// codeExecuted records that the test actually ran rather than
	// being served by the shape memo — journal state, not part of the
	// classified outcome.
	codeExecuted

	// numOutcomeBits counts the classification bits below codeExecuted.
	numOutcomeBits = 5
	// outcomeMask selects the classification bits.
	outcomeMask = outcomeCode(1)<<numOutcomeBits - 1
)

// outcomeEntry is one interned decoded outcome.
type outcomeEntry struct {
	gen, compile Outcome
	compileRan   bool
}

// outcomeTable interns every decodable outcome, indexed by the
// classification bits of an outcomeCode. Decoding is a table lookup
// and every distinct outcome value exists exactly once.
var outcomeTable = func() [1 << numOutcomeBits]outcomeEntry {
	var t [1 << numOutcomeBits]outcomeEntry
	for c := range t {
		code := outcomeCode(c)
		t[c] = outcomeEntry{
			gen: Outcome{
				Warning: code&codeGenWarning != 0,
				Error:   code&codeGenError != 0,
			},
			compile: Outcome{
				Warning: code&codeCompileWarning != 0,
				Error:   code&codeCompileError != 0,
			},
			compileRan: code&codeCompileRan != 0,
		}
	}
	return t
}()

// executed reports whether the test actually ran.
func (c outcomeCode) executed() bool { return c&codeExecuted != 0 }

// errorAnywhere mirrors TestResult.ErrorAnywhere over the packed form.
func (c outcomeCode) errorAnywhere() bool {
	return c&(codeGenError|codeCompileError) != 0
}

// testResult materializes the struct form of one cell outcome at its
// (server, client, class) coordinates.
func (c outcomeCode) testResult(server, client, class string) TestResult {
	e := &outcomeTable[c&outcomeMask]
	return TestResult{
		Server:     server,
		Client:     client,
		Class:      class,
		Gen:        e.gen,
		Compile:    e.compile,
		CompileRan: e.compileRan,
	}
}
