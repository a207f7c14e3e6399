package campaign

import (
	"fmt"

	"wsinterop/internal/artifact"
	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// Explanation is the full drill-down for one (server, class) pair:
// everything the study would tell a developer asking "why does my
// service not work from framework X?". It is the library form of the
// paper's §IV.B technical narratives.
type Explanation struct {
	Server string
	Class  string
	// Deployed reports whether the server published a WSDL;
	// DeployError carries the refusal otherwise.
	Deployed    bool
	DeployError string
	// Document is the serialized WSDL (nil when not deployed).
	Document []byte
	// Compliance carries the WS-I findings.
	Compliance []wsi.Violation
	// Clients holds one entry per client framework, in roster order.
	Clients []ClientExplanation
}

// ClientExplanation is one client framework's view of the service.
type ClientExplanation struct {
	Client string
	Tool   string
	// GenerationIssues is the tool's reported output during artifact
	// generation.
	GenerationIssues []framework.Issue
	// ArtifactsProduced reports whether any artifacts exist (silent
	// failures produce artifacts alongside error issues).
	ArtifactsProduced bool
	// Diagnostics is the compiler/instantiation output.
	Diagnostics []artifact.Diagnostic
}

// Failed reports whether any step errored for this client.
func (c *ClientExplanation) Failed() bool {
	for _, i := range c.GenerationIssues {
		if i.Severity >= artifact.SeverityError {
			return true
		}
	}
	return len(artifact.Errors(c.Diagnostics)) > 0
}

// Explain runs the three steps for one class on one server and
// returns the full narrative. The server is matched by name against
// the runner's configured servers.
func (r *Runner) Explain(serverName, className string) (*Explanation, error) {
	var server framework.ServerFramework
	for _, s := range r.servers {
		if s.Name() == serverName {
			server = s
			break
		}
	}
	if server == nil {
		return nil, fmt.Errorf("campaign: no server framework named %q", serverName)
	}
	cat := r.catalog(server.Language())
	if cat == nil {
		return nil, fmt.Errorf("campaign: no catalog for %s", server.Language())
	}
	cls, ok := cat.Lookup(className)
	if !ok {
		return nil, fmt.Errorf("campaign: class %q is not in the %s catalog", className, server.Language())
	}
	return explain(server, r.clients, r.checker, cls)
}

func explain(server framework.ServerFramework, clients []framework.ClientFramework,
	checker *wsi.Checker, cls *typesys.Class) (*Explanation, error) {
	e := &Explanation{Server: server.Name(), Class: cls.Name}

	doc, err := server.Publish(services.ForClass(cls))
	if err != nil {
		e.DeployError = err.Error()
		return e, nil
	}
	e.Deployed = true
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("marshal WSDL: %w", err)
	}
	e.Document = raw
	e.Compliance = checker.Check(doc).Violations

	for _, client := range clients {
		ce := ClientExplanation{Client: client.Name(), Tool: client.Tool()}
		gen := framework.Generate(client, raw)
		ce.GenerationIssues = gen.Issues
		if gen.Unit != nil {
			ce.ArtifactsProduced = true
			ce.Diagnostics = client.Verify(gen.Unit)
		}
		e.Clients = append(e.Clients, ce)
	}
	return e, nil
}
