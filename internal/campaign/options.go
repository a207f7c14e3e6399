package campaign

// This file is the package's one construction surface (DESIGN.md
// §9.4): New plus functional options. The configuration struct stays
// unexported, so every knob a caller can set is an option here.

import (
	"strings"

	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// Option configures a campaign Runner built by New.
type Option func(*config)

// New builds a Runner from functional options — the only construction
// surface. A runner built with no options runs the full study: every
// server and client framework, full catalogs, GOMAXPROCS workers.
//
//	r := campaign.New(campaign.WithLimit(500), campaign.WithCheckpoint(dir))
//	res, err := r.Run(ctx)
func New(opts ...Option) *Runner {
	var cfg config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return newRunner(cfg)
}

// WithServers restricts the campaign to the given server frameworks.
func WithServers(servers ...framework.ServerFramework) Option {
	return func(cfg *config) { cfg.Servers = servers }
}

// WithClients restricts the campaign to the given client frameworks.
func WithClients(clients ...framework.ClientFramework) Option {
	return func(cfg *config) { cfg.Clients = clients }
}

// MatchRoster selects the frameworks in roster whose name contains
// sub, case-insensitively, in roster order — the -server/-client
// selection shared by the CLI and the daemon.
func MatchRoster[F interface{ Name() string }](roster []F, sub string) []F {
	sub = strings.ToLower(sub)
	var matched []F
	for _, f := range roster {
		if strings.Contains(strings.ToLower(f.Name()), sub) {
			matched = append(matched, f)
		}
	}
	return matched
}

// WithCatalog overrides catalog selection per language.
func WithCatalog(catalogFor func(lang typesys.Language) *typesys.Catalog) Option {
	return func(cfg *config) { cfg.CatalogFor = catalogFor }
}

// WithLimit caps the number of classes per catalog (0 = all).
func WithLimit(n int) Option {
	return func(cfg *config) { cfg.Limit = n }
}

// WithWorkers bounds the worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(cfg *config) { cfg.Workers = n }
}

// WithKeepFailures retains per-test detail for every errored test in
// Result.Failures.
func WithKeepFailures() Option {
	return func(cfg *config) { cfg.KeepFailures = true }
}

// WithVariant selects the service interface complexity.
func WithVariant(v services.Variant) Option {
	return func(cfg *config) { cfg.Variant = v }
}

// WithStyle selects the SOAP binding style the default servers emit.
func WithStyle(s wsdl.Style) Option {
	return func(cfg *config) { cfg.Style = s }
}

// WithProgress installs a live progress callback.
func WithProgress(fn func(stage string, done, total int)) Option {
	return func(cfg *config) { cfg.Progress = fn }
}

// WithChecker overrides the WS-I compliance checker.
func WithChecker(c *wsi.Checker) Option {
	return func(cfg *config) { cfg.Checker = c }
}

// WithObs instruments the runner into the given metrics registry.
func WithObs(reg *obs.Registry) Option {
	return func(cfg *config) { cfg.Obs = reg }
}

// WithCheckpoint makes runs durable: completed cells are journaled to
// dir as they finish (DESIGN.md §9).
func WithCheckpoint(dir string) Option {
	return func(cfg *config) { cfg.Checkpoint = dir }
}

// WithResume replays the cells journaled under the checkpoint
// directory instead of re-executing them. Combine with WithCheckpoint.
func WithResume() Option {
	return func(cfg *config) { cfg.Resume = true }
}

// WithShard restricts the run to one deterministic slice of every
// catalog — the plan items (whole shape groups in plan order, then
// loose classes, after WithLimit) numbered congruent to spec.Index
// modulo spec.Count — for distributed execution (DESIGN.md §11).
// Combine with WithCheckpoint so the shard journals for a later Merge,
// which replays their union.
func WithShard(spec ShardSpec) Option {
	return func(cfg *config) { cfg.Shard = spec }
}
