// Command mistral-top is the live ops view for a Mistral run: a
// refreshing terminal rendering of controller health, SLO error-budget
// state, recent alerts, and per-series trend sparklines, polled from the
// /ops JSON endpoint that mistral-sim, mistral-exp and mistral-serve
// serve next to /metrics. The slowest decides are in the history store:
// /v1/query?series=decide_wall_ms lists every window's decide wall time.
// Recorded provenance files are read by mistral-explain.
//
// -check validates the document against the published schemas
// (mistral.ops/v1, mistral.slo/v1) and exits non-zero on mismatch —
// the CI contract for the observability endpoints.
//
// Usage:
//
//	mistral-top -addr 127.0.0.1:6060 [-refresh 2s] [-once] [-check]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-top:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "", "poll the live /ops endpoint at HOST:PORT (mistral-sim/mistral-exp -pprof or mistral-serve -addr address)")
		refresh = flag.Duration("refresh", 2*time.Second, "refresh interval")
		once    = flag.Bool("once", false, "render one frame and exit")
		check   = flag.Bool("check", false, "validate the source against the ops/SLO schemas and exit")
	)
	flag.Parse()
	if *addr == "" || flag.NArg() != 0 {
		return fmt.Errorf("usage: mistral-top -addr HOST:PORT")
	}
	source := "live " + *addr

	if *check {
		f, err := fetchLive(*addr)
		if err != nil {
			return err
		}
		if err := f.validate(); err != nil {
			return err
		}
		fmt.Printf("ok: %s — schemas %s + %s, %d windows, %d objectives, %d alerts\n",
			source, obs.OpsSchema, slo.Schema, f.ops.Windows, len(f.slo.Objectives), f.slo.TotalAlerts)
		return nil
	}

	for {
		f, err := fetchLive(*addr)
		if err != nil {
			return err
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		f.render(os.Stdout, source)
		if *once {
			return nil
		}
		time.Sleep(*refresh)
	}
}

// frame is one rendered snapshot: the ops document plus its decoded SLO
// sub-document.
type frame struct {
	ops obs.OpsSnapshot
	slo slo.Snapshot
}

// validate enforces the -check schema contract.
func (f *frame) validate() error {
	if f.ops.Schema != obs.OpsSchema {
		return fmt.Errorf("ops schema %q, want %q", f.ops.Schema, obs.OpsSchema)
	}
	if f.ops.Windows > 0 && f.ops.Window < 0 {
		return fmt.Errorf("ops snapshot has %d windows but no current window", f.ops.Windows)
	}
	if f.ops.Windows > 0 && f.ops.Trace == "" {
		return fmt.Errorf("ops snapshot window %d missing trace ID", f.ops.Window)
	}
	if len(f.ops.SLO) > 0 || f.slo.Schema != "" {
		if f.slo.Schema != slo.Schema {
			return fmt.Errorf("slo schema %q, want %q", f.slo.Schema, slo.Schema)
		}
		for _, ob := range f.slo.Objectives {
			if ob.Name == "" {
				return fmt.Errorf("slo objective with empty name")
			}
			if ob.Breaches > ob.Windows {
				return fmt.Errorf("slo objective %s: %d breaches over %d windows", ob.Name, ob.Breaches, ob.Windows)
			}
		}
		for _, a := range f.slo.Alerts {
			if a.Trace != obs.TraceID(a.Window) {
				return fmt.Errorf("alert window %d carries trace %q, want %q", a.Window, a.Trace, obs.TraceID(a.Window))
			}
			if a.Severity != slo.SeverityWarn && a.Severity != slo.SeverityPage {
				return fmt.Errorf("alert severity %q", a.Severity)
			}
		}
	}
	for _, h := range f.ops.History {
		if h.Name == "" {
			return fmt.Errorf("history series with empty name")
		}
		if h.Class != "virtual" && h.Class != "wall" {
			return fmt.Errorf("history series %s: class %q", h.Name, h.Class)
		}
		if h.Min > h.Max {
			return fmt.Errorf("history series %s: min %g > max %g", h.Name, h.Min, h.Max)
		}
	}
	return nil
}

// fetchLive pulls one /ops document from a running observer.
func fetchLive(addr string) (*frame, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/ops") {
		url = strings.TrimSuffix(url, "/") + "/ops"
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var f frame
	if err := json.Unmarshal(body, &f.ops); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	if len(f.ops.SLO) > 0 {
		if err := json.Unmarshal(f.ops.SLO, &f.slo); err != nil {
			return nil, fmt.Errorf("%s slo: %w", url, err)
		}
	}
	return &f, nil
}

// render writes one terminal frame.
func (f *frame) render(w io.Writer, source string) {
	o := &f.ops
	fmt.Fprintf(w, "mistral-top — %s\n", source)
	fmt.Fprintf(w, "strategy %s  window %d (%s)  t=%.0fs  windows=%d  cum=$%.2f\n",
		orDash(o.Strategy), o.Window, orDash(o.Trace), o.TimeSec, o.Windows, o.CumUtility)
	fmt.Fprintf(w, "degraded=%d  decide_errors=%d  retries=%d  host_crashes=%d  last_decide_wall=%.1fms\n",
		o.DegradedWindows, o.DecideErrors, o.Retries, o.HostCrashes, o.LastDecideWallMS)

	fmt.Fprintf(w, "\nSLO objectives (%s)\n", orDash(f.slo.Schema))
	fmt.Fprintf(w, "  %-16s %-8s %9s %11s %8s  %s\n",
		"objective", "state", "breaches", "budget used", "burn", "last breach")
	for _, ob := range f.slo.Objectives {
		state := "ok"
		if !ob.Healthy {
			state = "PAGE"
		} else if ob.Breaches > 0 {
			state = "warn"
		}
		last := "-"
		if ob.LastBreachTrace != "" {
			last = ob.LastBreachTrace
		}
		fmt.Fprintf(w, "  %-16s %-8s %4d/%-4d %10.0f%% %8.2f  %s\n",
			ob.Name, state, ob.Breaches, ob.Windows, ob.BudgetUsed*100, ob.BurnRate, last)
	}
	if len(f.slo.Objectives) == 0 {
		fmt.Fprintln(w, "  (no SLO data)")
	}

	fmt.Fprintf(w, "\nalerts (%d total, last %d)\n", f.slo.TotalAlerts, min(len(f.slo.Alerts), 8))
	start := max(0, len(f.slo.Alerts)-8)
	for _, a := range f.slo.Alerts[start:] {
		fmt.Fprintf(w, "  [%s] %s t=%.0fs %s: %s\n", a.Severity, a.Trace, a.TimeSec, a.Objective, a.Message)
	}
	if len(f.slo.Alerts) == 0 {
		fmt.Fprintln(w, "  (none)")
	}

	if len(o.History) > 0 {
		fmt.Fprintf(w, "\ntrends (last %d windows)\n", opsSparkWidth(o.History))
		for _, h := range o.History {
			mark := ""
			if h.Class == "wall" {
				mark = " (wall)"
			}
			fmt.Fprintf(w, "  %-16s %s  last %-10s min %-10s max %-10s%s\n",
				h.Name, stats.Sparkline(h.Spark, len(h.Spark)), fmtVal(h.Last), fmtVal(h.Min), fmtVal(h.Max), mark)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// opsSparkWidth is the widest sparkline vector in the digests (they are
// all cut to the same cap; early windows are just shorter).
func opsSparkWidth(hist []tsdb.Summary) int {
	w := 0
	for _, h := range hist {
		if len(h.Spark) > w {
			w = len(h.Spark)
		}
	}
	return w
}

// fmtVal compacts a float for the fixed-width trend table.
func fmtVal(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	if av >= 1000 || (av > 0 && av < 0.01) {
		return fmt.Sprintf("%.3g", v)
	}
	return fmt.Sprintf("%.2f", v)
}
