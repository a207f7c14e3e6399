package campaign

// Columnar outcome rows (DESIGN.md §10). A study stage keeps one slab
// of packed outcome codes, one byte per (service × client) cell, instead
// of a TestResult struct per cell: the cell's identity (server, client,
// class) is implicit in its coordinates, and its outcome is five
// classification bits. The struct form is decoded from the bits only
// where a consumer genuinely needs it: the Failures index and the public
// RunTest API.

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
)

// executed reports whether the test actually ran.
func (c outcomeCode) executed() bool { return c&codeExecuted != 0 }

// errorAnywhere reports whether an executed step (generation or
// compilation) errored.
func (c outcomeCode) errorAnywhere() bool {
	return c&(codeGenError|codeCompileError) != 0
}

// testResult materializes the struct form of one cell outcome at its
// (server, client, class) coordinates.
func (c outcomeCode) testResult(server, client, class string) TestResult {
	return TestResult{
		Server:     server,
		Client:     client,
		Class:      class,
		Gen:        Outcome{Warning: c&codeGenWarning != 0, Error: c&codeGenError != 0},
		Compile:    Outcome{Warning: c&codeCompileWarning != 0, Error: c&codeCompileError != 0},
		CompileRan: c&codeCompileRan != 0,
	}
}
