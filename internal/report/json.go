package report

import (
	"encoding/json"
	"io"

	"wsinterop/internal/campaign"
)

// object is a JSON object whose members keep their order: the export
// shape, explicit and stable under internal refactors, whose wire
// sections sit at the keys their axes declare.
type object []member

type member struct {
	key string
	val any
}

// MarshalJSON implements json.Marshaler.
func (o object) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, m := range o {
		if i > 0 {
			b = append(b, ',')
		}
		k, _ := json.Marshal(m.key)
		v, err := json.Marshal(m.val)
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// jsonDedup exports the structural-shape memoization statistics.
// Enabled is always true: the memo layer has no off switch, and the
// key stays so readers of earlier dumps keep working.
type jsonDedup struct {
	Enabled         bool `json:"enabled"`
	Shapes          int  `json:"shapes"`
	PublishTotal    int  `json:"publishTotal"`
	PublishMemoized int  `json:"publishMemoized"`
	TestTotal       int  `json:"testTotal"`
	TestMemoized    int  `json:"testMemoized"`
	Fallbacks       int  `json:"fallbacks"`
	WSIChecks       int  `json:"wsiChecks"`
	WSIMemoized     int  `json:"wsiMemoized"`
}

// jsonProfile is one compliance profile's row of the per-profile
// matrix.
type jsonProfile struct {
	ID             string         `json:"id"`
	Name           string         `json:"name"`
	Compliant      map[string]int `json:"compliantByServer"`
	TotalCompliant int            `json:"totalCompliant"`
	Checked        int            `json:"checked"`
}

type jsonServer struct {
	Name                string `json:"name"`
	Created             int    `json:"created"`
	Deployed            int    `json:"deployed"`
	DescriptionWarnings int    `json:"descriptionWarnings"`
	GenWarnings         int    `json:"generationWarnings"`
	GenErrors           int    `json:"generationErrors"`
	CompileWarnings     int    `json:"compilationWarnings"`
	CompileErrors       int    `json:"compilationErrors"`
}

type jsonCell struct {
	Client          string `json:"client"`
	Server          string `json:"server"`
	Tests           int    `json:"tests"`
	GenWarnings     int    `json:"generationWarnings"`
	GenErrors       int    `json:"generationErrors"`
	CompileWarnings int    `json:"compilationWarnings"`
	CompileErrors   int    `json:"compilationErrors"`
}

type jsonFailure struct {
	Server         string   `json:"server"`
	Class          string   `json:"class"`
	GenClients     []string `json:"generationErrorClients,omitempty"`
	CompileClients []string `json:"compilationErrorClients,omitempty"`
}

type jsonComparison struct {
	Metric   string `json:"metric"`
	Paper    int    `json:"paper"`
	Measured int    `json:"measured"`
	Delta    int    `json:"delta"`
}

// JSON writes the complete campaign result and the wire results
// (RunWire or Merge results, in report order) as indented JSON.
func JSON(w io.Writer, res *campaign.Result, wire ...campaign.WireResult) error {
	out := object{
		{"totalServices", res.TotalServices},
		{"totalPublished", res.TotalPublished},
		{"totalTests", res.TotalTests},
		{"interopErrors", res.InteropErrors},
		{"sameFrameworkErrors", res.SameFrameworkErrors},
		{"flaggedServices", res.FlaggedServices},
		{"flaggedCleanServices", res.FlaggedCleanServices},
	}
	var servers []jsonServer
	for _, name := range res.ServerOrder {
		s := res.Servers[name]
		servers = append(servers, jsonServer{
			Name: name, Created: s.Created, Deployed: s.Deployed,
			DescriptionWarnings: s.DescriptionWarnings,
			GenWarnings:         s.GenWarnings, GenErrors: s.GenErrors,
			CompileWarnings: s.CompileWarnings, CompileErrors: s.CompileErrors,
		})
	}
	var matrix []jsonCell
	for _, client := range res.ClientOrder {
		for _, server := range res.ServerOrder {
			c := res.Matrix[client][server]
			matrix = append(matrix, jsonCell{
				Client: client, Server: server, Tests: c.Tests,
				GenWarnings: c.GenWarnings, GenErrors: c.GenErrors,
				CompileWarnings: c.CompileWarnings, CompileErrors: c.CompileErrors,
			})
		}
	}
	out = append(out, member{"servers", servers}, member{"matrix", matrix})
	var failures []jsonFailure
	for _, g := range GroupFailures(res) {
		failures = append(failures, jsonFailure(g))
	}
	if len(failures) > 0 {
		out = append(out, member{"failures", failures})
	}
	var comparisons []jsonComparison
	for _, c := range Comparisons(res) {
		comparisons = append(comparisons, jsonComparison{
			Metric: c.Metric, Paper: c.Paper, Measured: c.Measured, Delta: c.Delta(),
		})
	}
	out = append(out, member{"paperComparison", comparisons})
	for _, wr := range wire {
		if rows := wireFormats(wr).json(); len(rows) > 0 {
			out = append(out, member{wr.Axis().JSONKey, rows})
		}
	}
	if d := res.Dedup; d != nil {
		out = append(out, member{"dedup", jsonDedup{
			Enabled: true, Shapes: d.Shapes,
			PublishTotal: d.PublishTotal, PublishMemoized: d.PublishMemoized,
			TestTotal: d.TestTotal, TestMemoized: d.TestMemoized,
			Fallbacks: d.Fallbacks,
			WSIChecks: d.WSIChecks, WSIMemoized: d.WSIMemoized,
		}})
	}
	// The per-profile compliance matrix: one row per registered
	// compliance profile, keyed per server.
	var profiles []jsonProfile
	for _, pc := range res.Profiles {
		compliant := make(map[string]int, len(pc.Compliant))
		for server, n := range pc.Compliant {
			compliant[server] = n
		}
		profiles = append(profiles, jsonProfile{
			ID: pc.ID, Name: pc.Name, Compliant: compliant,
			TotalCompliant: pc.TotalCompliant, Checked: res.TotalPublished,
		})
	}
	if len(profiles) > 0 {
		out = append(out, member{"profiles", profiles})
	}
	// The runner's observability snapshot as taken at the end of the
	// static campaign (Result.Metrics).
	if res.Metrics != nil {
		out = append(out, member{"metrics", res.Metrics})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
