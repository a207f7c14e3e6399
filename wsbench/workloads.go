package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"time"

	"wsinterop/internal/campaign"
	"wsinterop/internal/framework"
	"wsinterop/internal/report"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
)

// env is the state one benchmark process shares across iterations.
type env struct {
	seed    int64
	workers int
	// scratch is emptied before every iteration; workloads that write
	// (checkpoint journals) write below it.
	scratch string
	// cats holds the seeded synthetic catalogs (study_distinct_journal
	// only); nil selects the stock corpus.
	cats map[typesys.Language]*typesys.Catalog
}

// options are the campaign options every runner of a workload shares.
func (e *env) options(limit int, extra ...campaign.Option) []campaign.Option {
	opts := []campaign.Option{campaign.WithWorkers(e.workers), campaign.WithLimit(limit)}
	if e.cats != nil {
		opts = append(opts, campaign.WithCatalog(func(lang typesys.Language) *typesys.Catalog {
			return e.cats[lang]
		}))
	}
	return append(opts, extra...)
}

// outcome is what one iteration hands back: the cells it completed and
// the oracle for its output, which runs after the iteration's timing.
type outcome struct {
	cells  int
	verify func() error
}

// workload is one named benchmark input with its closed-loop iteration.
type workload struct {
	name string
	// limit caps classes per catalog for the timed iterations (0 = all).
	limit int
	// setup loads the corpus: the stock catalogs, or the seeded
	// synthetic catalogs through typesys.ImportJSON.
	setup func(e *env) error
	// iterate runs one iteration on fresh runners. tr is nil for
	// untraced iterations. The oracle is checked only at the workload's
	// own limit; warm-up iterations run smaller.
	iterate func(ctx context.Context, e *env, limit int, tr *trace) (outcome, error)
	// reference, when set, runs before every traced iteration and
	// outside its timing, recording values the layer metrics compare
	// against.
	reference func(ctx context.Context, e *env, limit int, tr *trace) error
	// perRun, when set, runs once at the end of a traced run, outside
	// every iteration, for layer values that are properties of the
	// workload rather than of one iteration.
	perRun func(e *env, limit int, tr *trace) error
}

var workloads = []*workload{
	{name: "study_cold", setup: setupStock, iterate: studyCold},
	{name: "study_distinct_journal", setup: setupDistinct, iterate: studyDistinct, reference: plainRun},
	{name: "wire_echo", limit: echoLimit, setup: setupStock, iterate: wireEcho, perRun: wireLayers},
	{name: "wire_faults", limit: faultsLimit, setup: setupStock, iterate: wireFaults, perRun: wireLayers},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// setupStock builds the study's stock catalogs (process-once).
func setupStock(*env) error {
	typesys.JavaCatalog()
	typesys.CSharpCatalog()
	return nil
}

// setupDistinct synthesizes and imports the seeded catalogs.
func setupDistinct(e *env) error {
	cats, err := distinctCatalogs(e.seed)
	if err != nil {
		return err
	}
	e.cats = cats
	return nil
}

// renderStudy writes the Fig. 4, Table III, findings and compliance-
// profile reports, the study's user-facing output.
func renderStudy(w io.Writer, res *campaign.Result) error {
	for _, render := range []func(io.Writer, *campaign.Result) error{
		report.Fig4, report.TableIII, report.Findings, report.Profiles,
	} {
		if err := render(w, res); err != nil {
			return err
		}
	}
	return nil
}

// render times one renderer call into report.render_s and counts its
// bytes into report.bytes.
func render(tr *trace, write func(io.Writer) error) error {
	var buf bytes.Buffer
	end := tr.span("report.render_s")
	err := write(&buf)
	end()
	tr.set("report.bytes", tr.get("report.bytes")+float64(buf.Len()))
	return err
}

// planLayers resolves the plan of a fresh runner under a span and reads
// its shape sharing.
func planLayers(r *campaign.Runner, tr *trace) error {
	if tr == nil {
		return nil
	}
	end := tr.span("plan.build_s")
	_, err := r.ExecutionPlan()
	end()
	if err != nil {
		return err
	}
	return classesPerShape(r, tr)
}

func classesPerShape(r *campaign.Runner, tr *trace) error {
	sum, err := r.PlanSummary()
	if err != nil {
		return err
	}
	tr.set("plan.classes_per_shape", share(float64(sum.Classes), float64(sum.Shapes)))
	return nil
}

// studyStages are the histograms that attribute a static Run's wall.
var studyStages = []string{
	"campaign.publish.seconds", "campaign.wsi.seconds",
	"campaign.generate.seconds", "campaign.compile.seconds",
}

// studyCold is one cold study: a fresh runner resolves its plan, runs
// the campaign, and renders the paper's reports.
func studyCold(ctx context.Context, e *env, limit int, tr *trace) (outcome, error) {
	reg := tr.registry()
	r := campaign.New(e.options(limit, campaign.WithObs(reg))...)
	if err := planLayers(r, tr); err != nil {
		return outcome{}, err
	}
	end := tr.span("run_s")
	res, err := r.Run(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	if err := render(tr, func(w io.Writer) error { return renderStudy(w, res) }); err != nil {
		return outcome{}, err
	}
	tr.layers(reg, tr.get("run_s"), e.workers, studyStages...)
	return outcome{cells: res.TotalTests, verify: func() error { return checkStudyCold(res) }}, nil
}

// plainRun is study_distinct_journal's traced reference: the same
// campaign without a checkpoint, for journal.overhead_s. The
// checkpointed runner builds its plan under plan.build_s, outside
// journal.run_s, so the reference builds its plan untimed too and the
// two timings cover the same work.
func plainRun(ctx context.Context, e *env, limit int, tr *trace) error {
	r := campaign.New(e.options(limit)...)
	if _, err := r.ExecutionPlan(); err != nil {
		return err
	}
	start := time.Now()
	_, err := r.Run(ctx)
	tr.set("plain_run_s", time.Since(start).Seconds())
	return err
}

// studyDistinct runs the synthetic campaign with a checkpoint into a
// fresh directory, then resumes the completed journal on a second
// fresh runner and renders the resumed Result.
func studyDistinct(ctx context.Context, e *env, limit int, tr *trace) (outcome, error) {
	dir := filepath.Join(e.scratch, "checkpoint")
	reg := tr.registry()
	r := campaign.New(e.options(limit, campaign.WithCheckpoint(dir), campaign.WithObs(reg))...)
	if err := planLayers(r, tr); err != nil {
		return outcome{}, err
	}
	end := tr.span("journal.run_s")
	ran, err := r.Run(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		size, err := dirBytes(dir)
		if err != nil {
			return outcome{}, err
		}
		tr.set("journal.bytes", float64(size))
	}

	resumeReg := tr.registry()
	resumer := campaign.New(e.options(limit, campaign.WithCheckpoint(dir), campaign.WithResume(),
		campaign.WithObs(resumeReg))...)
	end = tr.span("journal.resume_s")
	resumed, err := resumer.Run(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	if err := render(tr, func(w io.Writer) error { return renderStudy(w, resumed) }); err != nil {
		return outcome{}, err
	}

	tr.layers(reg, tr.get("journal.run_s"), e.workers, studyStages...)
	if tr != nil {
		tr.set("journal.overhead_s", tr.get("journal.run_s")-tr.get("plain_run_s"))
		tr.set("journal.compactions", readRegistry(reg).counters["journal.compactions"])
		tr.set("journal.cells_resumed", readRegistry(resumeReg).counters["journal.cells.resumed"])
	}
	// Java classes become services on two servers, C# classes on one.
	created := 2*e.cats[typesys.Java].Len() + e.cats[typesys.CSharp].Len()
	clients := len(framework.Clients())
	return outcome{cells: ran.TotalTests, verify: func() error {
		return checkResumed(ran, resumed, created, clients)
	}}, nil
}

// dirBytes sums the sizes of the regular files below dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// wireEcho runs the communication extension (steps 4–5) on a fresh
// runner and renders its report.
func wireEcho(ctx context.Context, e *env, limit int, tr *trace) (outcome, error) {
	reg := tr.registry()
	r := campaign.New(e.options(limit, campaign.WithObs(reg))...)
	end := tr.span("mode.comm_s")
	comm, err := r.RunCommunication(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	if err := render(tr, func(w io.Writer) error { return report.Communication(w, comm) }); err != nil {
		return outcome{}, err
	}
	tr.layers(reg, tr.get("mode.comm_s"), e.workers,
		"campaign.publish.seconds", "campaign.wsi.seconds", "campaign.communication.seconds")
	return outcome{cells: comm.Totals().Combinations, verify: func() error { return checkEcho(comm) }}, nil
}

// wireFaults runs the robustness matrix and then the version matrix on
// one fresh runner, and renders both reports.
func wireFaults(ctx context.Context, e *env, limit int, tr *trace) (outcome, error) {
	reg := tr.registry()
	r := campaign.New(e.options(limit, campaign.WithObs(reg))...)
	end := tr.span("mode.robust_s")
	robust, err := r.RunRobustness(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	end = tr.span("mode.versions_s")
	versions, err := r.RunVersions(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	if err := render(tr, func(w io.Writer) error { return report.Robustness(w, robust) }); err != nil {
		return outcome{}, err
	}
	if err := render(tr, func(w io.Writer) error { return report.Versions(w, versions) }); err != nil {
		return outcome{}, err
	}
	rt, vt := robust.Totals(), versions.Totals()
	tr.layers(reg, tr.get("mode.robust_s")+tr.get("mode.versions_s"), e.workers,
		"campaign.publish.seconds", "campaign.wsi.seconds", "transport.invoke.seconds")
	if tr != nil {
		for name, v := range map[string]int{
			"robust.cells": rt.Cells, "robust.detected": rt.Detected, "robust.masked": rt.Masked,
			"robust.recovered": rt.Recovered, "robust.wrong_success": rt.WrongSuccess,
			"robust.skipped": rt.Skipped, "versions.cells": vt.Cells, "versions.accepted": vt.Accepted,
			"versions.typed_reject": vt.Rejected, "versions.silent_mishandle": vt.Mishandled,
			"versions.skipped": vt.Skipped,
		} {
			tr.set(name, float64(v))
		}
	}
	return outcome{cells: rt.Cells + vt.Cells, verify: func() error { return checkFaults(robust, versions) }}, nil
}

// wireLayers records the wire workloads' per-run layer values: the
// corpus's shape sharing (the wire modes themselves never build a plan)
// and the SOAP round-trip microbenchmark.
func wireLayers(e *env, limit int, tr *trace) error {
	r := campaign.New(e.options(limit)...)
	if err := classesPerShape(r, tr); err != nil {
		return err
	}
	return soapRoundTrip(r, e.seed, tr)
}

// soapSample is the number of published services whose endpoints feed
// the SOAP round-trip microbenchmark, and soapRounds how often each
// envelope is timed per codec.
const (
	soapSample = 64
	soapRounds = 40
)

// soapRoundTrip times the public envelope API on requests built the way
// the campaign builds them — transport.FromWSDL on a published
// document, transport.SampleValue per declared field — for a seeded
// sample of the runner's services. One round trip is Marshal,
// Unmarshal and soap.Detect under each of soap.V11 and soap.V12;
// soap.roundtrip_us is the median.
func soapRoundTrip(r *campaign.Runner, seed int64, tr *trace) error {
	var msgs []*soap.Message
	for _, server := range framework.Servers() {
		published, _, err := r.Publish(context.Background(), server)
		if err != nil {
			return err
		}
		for i := range published {
			doc, err := wsdl.Unmarshal(published[i].Doc)
			if err != nil {
				return fmt.Errorf("parse %s: %w", published[i].Class, err)
			}
			ep, err := transport.FromWSDL(doc)
			if err != nil {
				continue // zero-operation services have nothing to invoke
			}
			msgs = append(msgs, sampleRequest(ep, "probe:"+published[i].Class))
		}
	}
	if len(msgs) == 0 {
		return fmt.Errorf("no invocable endpoints to sample")
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	if len(msgs) > soapSample {
		msgs = msgs[:soapSample]
	}
	var samples []float64
	for round := 0; round < soapRounds; round++ {
		for _, m := range msgs {
			for _, codec := range []soap.Codec{soap.V11, soap.V12} {
				start := time.Now()
				data, err := codec.Marshal(m)
				if err != nil {
					return fmt.Errorf("marshal %s: %w", m.Local, err)
				}
				back, err := codec.Unmarshal(data)
				if err != nil {
					return fmt.Errorf("unmarshal %s: %w", m.Local, err)
				}
				v := soap.Detect(data, codec.ContentType(m.Local))
				samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
				if v != codec.Version() || back.Local != m.Local || len(back.Fields) != len(m.Fields) {
					return fmt.Errorf("%s round trip of %s came back as %s with %d fields",
						codec.Version(), m.Local, v, len(back.Fields))
				}
			}
		}
	}
	tr.set("soap.roundtrip_us", median(samples))
	return nil
}

// sampleRequest builds the echo request of an endpoint's first
// operation (in sorted order), filling every declared field with a
// lexically valid sample.
func sampleRequest(ep *transport.Endpoint, probe string) *soap.Message {
	op := ""
	for name := range ep.Operations {
		if op == "" || name < op {
			op = name
		}
	}
	fields := make(map[string]string, len(ep.Inputs[op]))
	for _, spec := range ep.Inputs[op] {
		fields[spec.Name] = transport.SampleValue(spec, probe)
	}
	if len(fields) == 0 {
		fields["input"] = probe
	}
	return &soap.Message{Namespace: ep.Namespace, Local: op, Fields: fields}
}
