package server

// Executors: the functions workers run for each request kind. Every
// executor honours its flight's cancel signal via core's cooperative
// cancellation and returns a result whose bytes depend only on the
// request identity. Reuse across requests and restarts lives one layer
// down, in core's cell memo and the attached disk result cache.

import (
	"encoding/json"
	"errors"
	"strings"

	"asmp/internal/core"
	"asmp/internal/figures"
	"asmp/internal/journal"
	"asmp/internal/report"
	"asmp/internal/sim"
)

const (
	ctJSON = "application/json"
	ctText = "text/plain; charset=utf-8"
)

// ---- run ----

// runResponse is the POST /v1/run success body.
type runResponse struct {
	Workload       string         `json:"workload"`
	Config         string         `json:"config"`
	Policy         string         `json:"policy"`
	Seed           uint64         `json:"seed"`
	Metric         string         `json:"metric"`
	Value          journal.Float  `json:"value"`
	HigherIsBetter bool           `json:"higherIsBetter"`
	Extras         journal.Extras `json:"extras,omitempty"`
	Digest         string         `json:"digest"`
}

// runExec executes one cell.
func (s *Server) runExec(spec core.RunSpec) func(<-chan struct{}) *result {
	return func(cancel <-chan struct{}) *result {
		spec.Cancel = cancel
		res, err := core.ExecuteSafe(spec)
		if errors.Is(err, core.ErrCancelled) {
			return &result{cancelled: true}
		}
		if err != nil {
			return &result{status: 500, errCode: "run_failed", errMsg: err.Error()}
		}
		body, merr := json.Marshal(runResponse{
			Workload:       spec.Workload.Name(),
			Config:         spec.Config.String(),
			Policy:         spec.Sched.Policy.String(),
			Seed:           spec.Seed,
			Metric:         res.Metric,
			Value:          journal.Float(res.Value),
			HigherIsBetter: res.HigherIsBetter,
			Extras:         journal.MakeExtras(res.Extras),
			Digest:         res.Digest.String(),
		})
		if merr != nil {
			return &result{status: 500, errCode: "internal", errMsg: merr.Error()}
		}
		return &result{status: 200, ctype: ctJSON, body: body}
	}
}

// ---- sweep ----

// sweepConfig is one configuration's row in a sweepResponse.
type sweepConfig struct {
	Config string `json:"config"`
	// Values holds the per-run metric values in run order (null for
	// failed or cancelled runs); Errors the matching error strings
	// (empty for successes).
	Values []journal.Float `json:"values"`
	Errors []string        `json:"errors,omitempty"`
	Mean   journal.Float   `json:"mean"`
	CoV    journal.Float   `json:"cov"`
	// Failed counts failed runs (cancelled included); Cancelled the
	// cancelled subset.
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
}

// sweepResponse is the POST /v1/sweep body — complete on 200, partial
// inside the 504/503 envelope when the sweep was cancelled mid-flight.
type sweepResponse struct {
	Name           string        `json:"name"`
	Workload       string        `json:"workload"`
	Policy         string        `json:"policy"`
	Runs           int           `json:"runs"`
	Seed           uint64        `json:"seed"`
	Fault          string        `json:"fault,omitempty"`
	Metric         string        `json:"metric"`
	HigherIsBetter bool          `json:"higherIsBetter"`
	Configs        []sweepConfig `json:"configs"`
	// MaxAsymmetricCoV and SymmetricMaxCoV are the paper's headline
	// predictability scores (see core.Outcome).
	MaxAsymmetricCoV journal.Float `json:"maxAsymmetricCoV"`
	SymmetricMaxCoV  journal.Float `json:"symmetricMaxCoV"`
	// Table is the rendered text report, byte-identical to asmp-sweep's
	// stdout table for the same request.
	Table string `json:"table"`
	// Failed and Cancelled count runs across the whole sweep.
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
}

// sweepExec executes a sweep. Cells an earlier request (or an earlier
// process, through the disk cache) completed are served by core without
// re-simulating.
func (s *Server) sweepExec(exp core.Experiment) func(<-chan struct{}) *result {
	return func(cancel <-chan struct{}) *result {
		exp.Cancel = cancel
		resp := buildSweepResponse(exp, exp.Run())
		body, merr := json.Marshal(resp)
		if merr != nil {
			return &result{status: 500, errCode: "internal", errMsg: merr.Error()}
		}
		if resp.Cancelled > 0 {
			return &result{cancelled: true, partial: body}
		}
		return &result{status: 200, ctype: ctJSON, body: body}
	}
}

// buildSweepResponse renders an outcome — complete or partial — into
// the response shape, including the same text table asmp-sweep prints.
func buildSweepResponse(exp core.Experiment, out *core.Outcome) sweepResponse {
	resp := sweepResponse{
		Name:             out.Name,
		Workload:         exp.Workload.Name(),
		Policy:           exp.Sched.Policy.String(),
		Runs:             exp.Runs,
		Seed:             exp.BaseSeed,
		Metric:           out.Metric,
		HigherIsBetter:   out.HigherIsBetter,
		MaxAsymmetricCoV: journal.Float(out.MaxCoV(true)),
		SymmetricMaxCoV:  journal.Float(out.SymmetricMaxCoV()),
	}
	if !exp.Fault.Empty() {
		resp.Fault = exp.Fault.String()
	}
	for i := range out.PerConfig {
		cr := &out.PerConfig[i]
		sc := sweepConfig{
			Config:    cr.Config.String(),
			Mean:      journal.Float(cr.Summary.Mean),
			CoV:       journal.Float(cr.Summary.CoV),
			Failed:    cr.Failed(),
			Cancelled: cr.Cancelled(),
		}
		for _, v := range cr.Values {
			sc.Values = append(sc.Values, journal.Float(v))
		}
		for _, err := range cr.Errs {
			if err != nil {
				sc.Errors = append(sc.Errors, err.Error())
			} else {
				sc.Errors = append(sc.Errors, "")
			}
		}
		if sc.Failed == 0 {
			sc.Errors = nil
		}
		resp.Failed += sc.Failed
		resp.Cancelled += sc.Cancelled
		resp.Configs = append(resp.Configs, sc)
	}
	t := report.OutcomeTable(out)
	t.AddNote("max asymmetric CoV = %s, symmetric noise floor = %s",
		report.F(out.MaxCoV(true)), report.F(out.SymmetricMaxCoV()))
	if len(out.PerConfig) >= 2 {
		t.AddNote("scalability fit R² = %.3f", out.ScalabilityFit().R2)
	}
	if !exp.Fault.Empty() {
		t.AddNote("fault plan: %s", exp.Fault)
	}
	resp.Table = t.String() + "\n"
	return resp
}

// ---- figure ----

// figureExec renders a figure (both text and CSV; waiters pick their
// format). Cells an earlier render completed are served by core without
// re-simulating.
func (s *Server) figureExec(f figures.Figure, opt figures.Options) func(<-chan struct{}) *result {
	return func(cancel <-chan struct{}) (res *result) {
		// core.Execute surfaces cooperative cancellation as a
		// *sim.CancelledError panic; pmap carries it here.
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*sim.CancelledError); ok {
					res = &result{cancelled: true}
					return
				}
				panic(r)
			}
		}()
		opt.Cancel = cancel
		tables := f.Run(opt)
		// Experiment-backed figures surface cancellation as CANCELLED
		// rows in their tables rather than a panic (core.Experiment
		// degrades, it doesn't abort), so a Run that returned after its
		// cancel fired may be a partial rendering. It must never be
		// answered 200: an identical later request re-renders, reusing
		// only completed cells (core never memoizes or caches a
		// cancelled one). The check is conservative: a cancel that
		// raced a fully completed Run also discards it, which only
		// costs a re-render nobody was waiting for.
		select {
		case <-cancel:
			return &result{cancelled: true}
		default:
		}
		// Render exactly as asmp-run does (runOne): the server's figure
		// bytes and the CLI's are the same bytes.
		var txt, csv strings.Builder
		for _, t := range tables {
			txt.WriteString(t.String())
			txt.WriteByte('\n')
			csv.WriteString(t.CSV())
		}
		fig := &journal.Figure{ID: f.ID, Txt: txt.String(), Csv: csv.String()}
		return &result{status: 200, figure: fig}
	}
}
