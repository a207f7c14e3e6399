package campaign

// The campaign service daemon (DESIGN.md §11.3): the long-running form
// of the one-shot CLI, mirroring how the ecosystem studies in
// PAPERS.md describe compliance auditing in production — a service you
// POST work to, not a batch job. The daemon multiplexes concurrent
// campaigns (each on its own metrics registry), streams progress as
// NDJSON while a campaign runs, and serves published WSDLs over real
// TCP through transport.Host — the host the wire axes serve in
// process, behind one hardened http.Server.
//
// API (all JSON):
//
//	POST /campaigns            body CampaignSpec → NDJSON stream:
//	                           {"type":"accepted","id":...}, then
//	                           {"type":"progress",...} lines, then
//	                           {"type":"result",...} or {"type":"error",...}
//	GET  /campaigns            list every campaign's status
//	GET  /campaigns/{id}       one campaign's status
//	GET  /campaigns/{id}/report  full Result + metrics snapshot
//	POST /services             {"server":...,"class":...} → publish that
//	                           class's WSDL on that framework over TCP
//	GET  /services/{path}?wsdl   the published description
//	POST /services/{path}        live SOAP endpoint (transport.Host)
//	GET  /healthz              liveness
//
// The /debug mux (metrics, events, pprof) is composed by cmd/interop
// on top of this handler, sharing the daemon's registry.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/transport"
)

// CampaignSpec is the daemon's wire form of a campaign request — the
// subset of the options that is meaningful per-request (checkpointing and
// sharding stay CLI concerns; a daemon campaign is in-memory).
type CampaignSpec struct {
	// Limit caps services per catalog (0 = the full study).
	Limit int `json:"limit,omitempty"`
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Server and Client restrict the rosters by substring match, the
	// CLI's -server/-client semantics.
	Server string `json:"server,omitempty"`
	Client string `json:"client,omitempty"`
	// KeepFailures retains the per-test failure index in the report.
	KeepFailures bool `json:"keepFailures,omitempty"`
}

// options resolves the spec into runner options.
func (s *CampaignSpec) options() ([]Option, error) {
	if s.Limit < 0 || s.Workers < 0 {
		return nil, fmt.Errorf("campaign: negative limit or workers")
	}
	opts := []Option{WithLimit(s.Limit), WithWorkers(s.Workers)}
	if s.KeepFailures {
		opts = append(opts, WithKeepFailures())
	}
	if s.Server != "" {
		servers := MatchRoster(framework.Servers(), s.Server)
		if len(servers) == 0 {
			return nil, fmt.Errorf("campaign: no server framework matches %q", s.Server)
		}
		opts = append(opts, WithServers(servers...))
	}
	if s.Client != "" {
		clients := MatchRoster(framework.Clients(), s.Client)
		if len(clients) == 0 {
			return nil, fmt.Errorf("campaign: no client framework matches %q", s.Client)
		}
		opts = append(opts, WithClients(clients...))
	}
	return opts, nil
}

// campaignJob is one multiplexed campaign: its own runner, its own
// metrics registry (so concurrent campaigns never interleave
// counters), and a mutex-guarded status snapshot for the list/status
// endpoints while the NDJSON stream is live.
type campaignJob struct {
	id   string
	spec CampaignSpec
	reg  *obs.Registry

	mu     sync.Mutex
	state  string // "running" | "done" | "failed"
	stage  string // current server stage
	done   int    // services resolved in the current stage
	total  int    // services in the current stage
	errMsg string
	result *Result
}

// JobStatus is the wire form of one campaign's state.
type JobStatus struct {
	ID    string       `json:"id"`
	Spec  CampaignSpec `json:"spec"`
	State string       `json:"state"`
	Stage string       `json:"stage,omitempty"`
	Done  int          `json:"done"`
	Total int          `json:"total"`
	Error string       `json:"error,omitempty"`
}

func (job *campaignJob) status() JobStatus {
	job.mu.Lock()
	defer job.mu.Unlock()
	return JobStatus{
		ID: job.id, Spec: job.spec, State: job.state,
		Stage: job.stage, Done: job.done, Total: job.total, Error: job.errMsg,
	}
}

// Daemon is the long-running campaign service. Construct with
// NewDaemon, mount Handler (or let Start bind its own hardened
// listener), and Shutdown to stop: running campaigns are cancelled
// cooperatively and in-flight responses drain.
type Daemon struct {
	reg  *obs.Registry
	base []Option
	host *transport.Host

	ctx    context.Context // cancelled at Shutdown; parents every campaign
	cancel context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*campaignJob
	order []string
	seq   int

	// plans shares resolved execution plans across campaigns: the first
	// campaign with a given configuration fingerprint builds the plan,
	// every later one adopts it (AdoptPlan) and skips the catalog walk.
	planMu sync.Mutex
	plans  map[string]*Plan

	srv      *net.Listener
	server   *http.Server
	done     chan struct{}
	serveErr error
}

// NewDaemon builds a campaign daemon. reg is the daemon-level registry
// (request counters; cmd/interop mounts /debug on it); nil creates a
// private one. baseOpts apply to every campaign before its spec's own
// options — the CLI uses this to thread its flags through.
func NewDaemon(reg *obs.Registry, baseOpts ...Option) *Daemon {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Daemon{
		reg:    reg,
		base:   baseOpts,
		host:   transport.NewHost(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*campaignJob),
		plans:  make(map[string]*Plan),
	}
}

// Handler returns the daemon's HTTP surface. The /debug endpoints are
// deliberately not included: callers compose them (cmd/interop mounts
// debugMux over the same registry) so the daemon embeds cleanly under
// other muxes too.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaigns", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			d.startCampaign(w, r)
		case http.MethodGet:
			d.listCampaigns(w)
		default:
			http.Error(w, "POST a campaign spec, or GET the campaign list", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/campaigns/", d.campaignStatus)
	mux.HandleFunc("/services", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `POST {"server":...,"class":...} to publish a service`, http.StatusMethodNotAllowed)
			return
		}
		d.publishService(w, r)
	})
	mux.Handle("/services/", http.StripPrefix("/services", d.host))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Start binds addr and serves handler (nil means Handler()) on a
// hardened http.Server — same ReadHeaderTimeout discipline as
// transport.Host.Start — returning the base URL.
func (d *Daemon) Start(addr string, handler http.Handler) (string, error) {
	if handler == nil {
		handler = d.Handler()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("campaign: daemon listen: %w", err)
	}
	d.srv = &ln
	d.done = make(chan struct{})
	d.server = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(d.done)
		if err := d.server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.serveErr = err
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// Shutdown stops the daemon: running campaigns are cancelled (they
// drain cooperatively and their streams end with an error line), then
// the server shuts down gracefully within ctx — in-flight responses
// finish — falling back to a hard close if ctx expires first.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.cancel()
	if d.server == nil {
		return nil
	}
	err := d.server.Shutdown(ctx)
	if err != nil {
		_ = d.server.Close()
	}
	<-d.done
	if err != nil {
		return err
	}
	return d.serveErr
}

// register allocates a job ID and tracks the job.
func (d *Daemon) register(spec CampaignSpec) *campaignJob {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	job := &campaignJob{
		id:    fmt.Sprintf("c%04d", d.seq),
		spec:  spec,
		reg:   obs.NewRegistry(),
		state: "running",
	}
	d.jobs[job.id] = job
	d.order = append(d.order, job.id)
	return job
}

// streamLine writes one NDJSON event and flushes it to the client.
func streamLine(w http.ResponseWriter, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// progressEvery throttles streamed progress lines: one every this many
// resolved services, plus every stage boundary.
const progressEvery = 64

// decodeSpec reads a POST /campaigns body (1 MiB cap, unknown fields
// refused) and resolves it into runner options. On refusal it answers
// 400 itself and reports false.
func decodeSpec(w http.ResponseWriter, r *http.Request) (CampaignSpec, []Option, bool) {
	var spec CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad campaign spec: "+err.Error(), http.StatusBadRequest)
		return spec, nil, false
	}
	opts, err := spec.options()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return spec, nil, false
	}
	return spec, opts, true
}

// startCampaign runs one campaign, streaming progress as NDJSON until
// the final result (or error) line. The campaign is cancelled if the
// client disconnects or the daemon shuts down.
func (d *Daemon) startCampaign(w http.ResponseWriter, r *http.Request) {
	spec, opts, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	job := d.register(spec)
	d.reg.Counter("daemon.campaigns.started").Inc()
	d.reg.Emit(obs.Event{
		Trace: obs.TraceID("daemon", job.id), Stage: "campaign-accepted",
		Detail: job.id,
	})

	// The campaign dies with the request (client gone) or the daemon.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(d.ctx, cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = streamLine(w, map[string]any{"type": "accepted", "id": job.id, "spec": &spec})

	// Progress callbacks arrive serialized from runner workers while
	// this handler goroutine blocks in Run, so writes never interleave.
	progress := func(stage string, done, total int) {
		job.mu.Lock()
		job.stage, job.done, job.total = stage, done, total
		job.mu.Unlock()
		if done%progressEvery == 0 || done == total {
			_ = streamLine(w, map[string]any{
				"type": "progress", "id": job.id,
				"stage": stage, "done": done, "total": total,
			})
		}
	}
	runner := New(append(append([]Option{}, d.base...),
		append(opts, WithObs(job.reg), WithProgress(progress))...)...)
	fp := runner.PlanFingerprint()
	if fp != "" {
		d.planMu.Lock()
		p := d.plans[fp]
		d.planMu.Unlock()
		if p != nil {
			// Same configuration as an earlier campaign: reuse its plan.
			_ = runner.AdoptPlan(p)
		}
	}
	res, err := runner.Run(ctx)
	if err == nil && fp != "" {
		if p, perr := runner.ExecutionPlan(); perr == nil {
			d.planMu.Lock()
			d.plans[fp] = p
			d.planMu.Unlock()
		}
	}

	job.mu.Lock()
	if err != nil {
		job.state, job.errMsg = "failed", err.Error()
	} else {
		job.state, job.result = "done", res
	}
	job.mu.Unlock()

	if err != nil {
		d.reg.Counter("daemon.campaigns.failed").Inc()
		d.reg.Emit(obs.Event{Trace: obs.TraceID("daemon", job.id), Stage: "campaign-failed", Detail: err.Error()})
		_ = streamLine(w, map[string]any{"type": "error", "id": job.id, "error": err.Error()})
		return
	}
	d.reg.Counter("daemon.campaigns.completed").Inc()
	d.reg.Emit(obs.Event{Trace: obs.TraceID("daemon", job.id), Stage: "campaign-done", Detail: job.id})
	_ = streamLine(w, map[string]any{
		"type": "result", "id": job.id,
		"summary": map[string]int{
			"totalServices":  res.TotalServices,
			"totalPublished": res.TotalPublished,
			"totalTests":     res.TotalTests,
			"interopErrors":  res.InteropErrors,
		},
		"report": "/campaigns/" + job.id + "/report",
	})
}

// listCampaigns reports every job's status, oldest first.
func (d *Daemon) listCampaigns(w http.ResponseWriter) {
	d.mu.Lock()
	statuses := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		statuses = append(statuses, d.jobs[id].status())
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statuses)
}

// campaignStatus serves GET /campaigns/{id} and /campaigns/{id}/report.
func (d *Daemon) campaignStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "campaign resources are read-only", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	d.mu.Lock()
	job := d.jobs[id]
	d.mu.Unlock()
	if job == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	switch sub {
	case "":
		_ = json.NewEncoder(w).Encode(job.status())
	case "report":
		job.mu.Lock()
		res := job.result
		job.mu.Unlock()
		if res == nil {
			http.Error(w, "campaign has no result (state "+job.status().State+")", http.StatusConflict)
			return
		}
		// The report is the library Result plus the job's own metrics
		// snapshot — what report.JSON composes, without importing
		// internal/report (which imports this package).
		_ = json.NewEncoder(w).Encode(map[string]any{
			"id": job.id, "spec": &job.spec,
			"result":  res,
			"metrics": job.reg.Snapshot(),
		})
	default:
		http.NotFound(w, r)
	}
}

// publishRequest is the POST /services body.
type publishRequest struct {
	Server string `json:"server"`
	Class  string `json:"class"`
}

// publishService publishes one class's service description on one
// server framework and deploys it on the daemon's transport.Host, so
// its WSDL — and its live SOAP endpoint — are served over real TCP.
func (d *Daemon) publishService(w http.ResponseWriter, r *http.Request) {
	var req publishRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad publish request: "+err.Error(), http.StatusBadRequest)
		return
	}
	servers := MatchRoster(framework.Servers(), req.Server)
	if len(servers) != 1 {
		http.Error(w, fmt.Sprintf("server %q matches %d frameworks, need exactly 1", req.Server, len(servers)), http.StatusBadRequest)
		return
	}
	server := servers[0]
	cat := New(d.base...).catalog(server.Language())
	if cat == nil {
		http.Error(w, fmt.Sprintf("no catalog for %v", server.Language()), http.StatusBadRequest)
		return
	}
	cls, ok := cat.Lookup(req.Class)
	if !ok {
		http.Error(w, fmt.Sprintf("class %q is not in the %s catalog", req.Class, server.Language()), http.StatusNotFound)
		return
	}
	doc, err := server.Publish(services.ForClass(cls))
	if err != nil {
		http.Error(w, fmt.Sprintf("%s rejects %s: %v", server.Name(), req.Class, err), http.StatusUnprocessableEntity)
		return
	}
	ep, err := transport.FromWSDL(doc)
	if err != nil {
		http.Error(w, "endpoint derivation: "+err.Error(), http.StatusInternalServerError)
		return
	}
	already := false
	if err := d.host.Deploy(ep); err != nil {
		if !errors.Is(err, transport.ErrPathCollision) {
			http.Error(w, "deploy: "+err.Error(), http.StatusInternalServerError)
			return
		}
		// Same class → same path → same document: publishing is
		// idempotent, the earlier endpoint keeps serving.
		already = true
	}
	d.reg.Counter("daemon.services.published").Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"server": server.Name(), "class": req.Class,
		"path":            "/services" + ep.Path,
		"wsdl":            "/services" + ep.Path + "?wsdl",
		"namespace":       ep.Namespace,
		"alreadyDeployed": already,
	})
}
