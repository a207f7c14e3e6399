package campaign

// This file is the package's stable construction surface (DESIGN.md
// §9.4): context-first package-level entry points plus a functional-
// option constructor. The Config struct remains exported for
// compatibility, but new knobs are added here first.

import (
	"context"

	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// Run executes a full campaign with the given configuration on a
// background context — the package-level convenience entry point.
// Use RunContext to make the run cancellable.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes a full campaign under ctx. Cancellation is
// cooperative: in-flight services drain to completion (and, with
// Config.Checkpoint set, are journaled) before the run returns
// ctx.Err(), so a cancelled checkpointed run always leaves resumable
// state.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return NewRunner(cfg).Run(ctx)
}

// Option configures a campaign Runner built by New.
type Option func(*Config)

// New builds a Runner from functional options — the recommended
// construction surface. A runner built with no options runs the full
// study: every server and client framework, full catalogs, GOMAXPROCS
// workers.
//
//	r := campaign.New(campaign.WithLimit(500), campaign.WithCheckpoint(dir))
//	res, err := r.Run(ctx)
func New(opts ...Option) *Runner {
	var cfg Config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return NewRunner(cfg)
}

// WithServers restricts the campaign to the given server frameworks.
func WithServers(servers ...framework.ServerFramework) Option {
	return func(cfg *Config) { cfg.Servers = servers }
}

// WithClients restricts the campaign to the given client frameworks.
func WithClients(clients ...framework.ClientFramework) Option {
	return func(cfg *Config) { cfg.Clients = clients }
}

// WithCatalog overrides catalog selection per language.
func WithCatalog(catalogFor func(lang typesys.Language) *typesys.Catalog) Option {
	return func(cfg *Config) { cfg.CatalogFor = catalogFor }
}

// WithLimit caps the number of classes per catalog (0 = all).
func WithLimit(n int) Option {
	return func(cfg *Config) { cfg.Limit = n }
}

// WithWorkers bounds the worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(cfg *Config) { cfg.Workers = n }
}

// WithKeepFailures retains per-test detail for every errored test in
// Result.Failures.
func WithKeepFailures() Option {
	return func(cfg *Config) { cfg.KeepFailures = true }
}

// WithReparse forces the byte-level client path — the shared-analysis
// cache ablation (DESIGN.md §6.3).
func WithReparse() Option {
	return func(cfg *Config) { cfg.Reparse = true }
}

// WithoutDedup disables the structural-shape memo layer — the
// memoization ablation (DESIGN.md §6.6).
func WithoutDedup() Option {
	return func(cfg *Config) { cfg.NoDedup = true }
}

// WithVariant selects the service interface complexity.
func WithVariant(v services.Variant) Option {
	return func(cfg *Config) { cfg.Variant = v }
}

// WithStyle selects the SOAP binding style the default servers emit.
func WithStyle(s wsdl.Style) Option {
	return func(cfg *Config) { cfg.Style = s }
}

// WithProgress installs a live progress callback.
func WithProgress(fn func(stage string, done, total int)) Option {
	return func(cfg *Config) { cfg.Progress = fn }
}

// WithChecker overrides the WS-I compliance checker.
func WithChecker(c *wsi.Checker) Option {
	return func(cfg *Config) { cfg.Checker = c }
}

// WithObs instruments the runner into the given metrics registry.
func WithObs(reg *obs.Registry) Option {
	return func(cfg *Config) { cfg.Obs = reg }
}

// WithCheckpoint makes runs durable: completed cells are journaled to
// dir as they finish (DESIGN.md §9).
func WithCheckpoint(dir string) Option {
	return func(cfg *Config) { cfg.Checkpoint = dir }
}

// WithResume replays the cells journaled under the checkpoint
// directory instead of re-executing them. Combine with WithCheckpoint.
func WithResume() Option {
	return func(cfg *Config) { cfg.Resume = true }
}

// WithShard restricts the run to one deterministic slice of every
// catalog — shard index of count — for distributed execution
// (DESIGN.md §11). Combine with WithCheckpoint so the shard journals
// for a later Merge.
func WithShard(index, count int) Option {
	return func(cfg *Config) { cfg.Shard = ShardSpec{Index: index, Count: count} }
}

// WithShardSpec is WithShard taking a planned spec (PlanShards),
// including its lease: a lease minted for a different campaign
// configuration is refused at Run.
func WithShardSpec(spec ShardSpec) Option {
	return func(cfg *Config) { cfg.Shard = spec }
}
