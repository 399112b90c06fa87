package core

import (
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/par"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// Fixed settings of the adaptation search.
const (
	// pruneMinKeep floors the pruned width: a beam of one or two children
	// collapses into already-visited configurations and drains the
	// frontier before any plan is found.
	pruneMinKeep = 6
	// searchWatts is the power drawn by the controller host while
	// searching; the paper measures ≈12% over a 60 W idle host.
	searchWatts float64 = 67
	// shapingFraction controls how strongly the search discounts its
	// cost-to-go by §IV-B's weighted Euclidean distance to the ideal
	// configuration: traversing the entire root-to-ideal distance forfeits
	// this fraction of the potential gain. Values near 1 turn the search
	// into greedy descent toward c*. Both variants shape (a pure admissible
	// bound degenerates into near-exhaustive exploration); what
	// distinguishes Self-Aware is the width pruning, decision deadline, and
	// expected-utility budget.
	shapingFraction float64 = 0.8
	// epsilonMargin terminates the search once the best candidate found is
	// within this fraction of the theoretical utility upper bound. The
	// admissible heuristic makes shallow intermediates look marginally
	// better than any reachable candidate, so exact A* degenerates into
	// near-exhaustive search — precisely the blow-up §IV-B describes; the
	// margin bounds that tail for the naive search without affecting which
	// plan wins by more than ε.
	epsilonMargin float64 = 0.01
)

// SearchOptions tunes the adaptation search of §IV-B.
type SearchOptions struct {
	// SelfAware enables Algorithm 1's self-cost accounting and dynamic
	// pruning; false yields the Naive A* baseline.
	SelfAware bool
	// PruneFraction is the fraction of expanded children kept once the
	// Self-Aware trigger fires (default 0.05, the paper's top 5%).
	PruneFraction float64
	// DelayFraction is the search delay threshold T̄ as a fraction of the
	// control window (default 0.05, the paper's 5%).
	DelayFraction float64
	// TimePerChild is the simulated decision-making time charged per
	// generated child vertex; it makes self-awareness deterministic
	// (default 250 µs, calibrated to the paper's search durations).
	TimePerChild time.Duration
	// MaxExpansions bounds the number of vertex expansions as a safety
	// valve (default 2500). When hit, the best candidate found so far is
	// returned. Without the Self-Aware beam and deadline the naive search
	// grinds hard instances to the ε-margin or this cap; the cap keeps
	// full-scenario naive replays tractable while leaving the paper's
	// duration contrast (≈4×, Fig. 10b) visible.
	MaxExpansions int
	// Workers bounds the goroutines staging an expansion's children
	// (validate, price the transient, fingerprint, score) concurrently
	// (default min(GOMAXPROCS, 8); 1 reproduces the serial path exactly).
	// The same setting, carried by ControllerOptions.Workers and
	// strategy.MistralConfig.Workers, bounds the other two parallel
	// stages: the Perf-Pwr sweep arms and the hierarchy's 1st-level
	// fan-out. Nothing is solved speculatively, so every LQN solve is one
	// the serial path also makes. Results are merged in enumeration order,
	// so the plan, pruning, and self-aware accounting are identical at
	// every setting — only wall-clock time changes. The simulated
	// decision-making time (TimePerChild per child) deliberately ignores
	// Workers: it models the paper's single controller host.
	Workers int
	// Provenance enables the search flight recorder: the returned
	// SearchResult carries a bounded provenance.SearchDigest (expanded
	// vertices with f/g/h, pruning events with reasons, termination, the
	// chosen plan's Eq. 3 ledger, and the top rejected frontier
	// alternatives). False — the default — costs one nil check per
	// expansion and leaves results bit-identical to an uninstrumented
	// search.
	Provenance bool
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.PruneFraction <= 0 || o.PruneFraction > 1 {
		o.PruneFraction = 0.05
	}
	if o.DelayFraction <= 0 {
		o.DelayFraction = 0.05
	}
	if o.TimePerChild <= 0 {
		o.TimePerChild = 250 * time.Microsecond
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 2500
	}
	o.Workers = par.Workers(o.Workers)
	return o
}

// ExpectedUtility carries the controller's pessimistic estimate UH of the
// utility a control window should deliver, with the rates used to decay it
// during the search (Algorithm 1's URT_H and Upwr_H, in dollars/second).
type ExpectedUtility struct {
	Total    float64 // UH, dollars over the window
	PerfRate float64
	PwrRate  float64 // non-positive
}

// SearchResult is a completed search.
type SearchResult struct {
	// Plan is the optimal action sequence (possibly empty: stay put).
	Plan []cluster.Action
	// Utility is Eq. 3 evaluated for the plan over the control window.
	Utility float64
	// SearchTime is the simulated decision-making time.
	SearchTime time.Duration
	// SearchCost is the dollar cost of the decision itself: power drawn by
	// the controller host over SearchTime.
	SearchCost float64
	// Expanded counts vertex expansions; Generated counts children created.
	Expanded, Generated int
	// Pruned reports whether Self-Aware pruning fired.
	Pruned bool
	// Truncated reports the expansion cap was hit (best-so-far returned).
	Truncated bool

	// Fields below exist so observability spans can be populated without
	// re-deriving search state.

	// PeakFrontier is the largest open-set size reached.
	PeakFrontier int
	// RootDistance is ConfigDistance from the starting configuration to
	// the ideal one (0 when they are equal).
	RootDistance float64
	// PrunedChildren counts children discarded by Self-Aware pruning.
	PrunedChildren int
	// Prov is the flight-recorder digest of this search; nil unless
	// SearchOptions.Provenance is set.
	Prov *provenance.SearchDigest
}

// vertex is a node in the search graph. Its configuration shares unchanged
// maps with its parent's (CloneShared + ApplyDelta), its identity is the
// O(1) 128-bit fingerprint instead of a sorted key string, and its plan is
// reconstructed on demand from the parent chain instead of being copied
// into every child.
type vertex struct {
	cfg      cluster.Config
	fp       cluster.Fingerprint
	parent   *vertex        // expansion parent; nil at the root
	act      cluster.Action // action that produced this vertex from parent
	depth    int            // plan length (root: 0)
	dur      time.Duration  // total duration of plan
	accrued  float64        // utility accrued while executing plan, dollars
	utility  float64        // priority: accrued + remaining-window bound
	finished bool           // reached via the "null" action
	index    int            // heap position
}

// planOf rebuilds the action sequence leading to v by walking the parent
// chain. Root (and finished-at-root) vertices yield a nil plan, matching
// the stay-put decision's representation.
func planOf(v *vertex) []cluster.Action {
	if v == nil || v.depth == 0 {
		return nil
	}
	plan := make([]cluster.Action, v.depth)
	for cur := v; cur != nil && cur.depth > 0; cur = cur.parent {
		plan[cur.depth-1] = cur.act
	}
	return plan
}

// childDesc is a staged child during expansion: everything the dedup,
// pruning, and priority logic needs, produced without cloning the parent
// configuration. Only descriptors that survive dedup and pruning are
// materialized into vertices.
type childDesc struct {
	ok      bool
	act     cluster.Action
	delta   cluster.Delta
	fp      cluster.Fingerprint
	dur     time.Duration
	accrued float64
	utility float64
	dist    float64 // distance to ideal, for pruning/shaping
}

type vertexHeap []*vertex

func (h vertexHeap) Len() int           { return len(h) }
func (h vertexHeap) Less(i, j int) bool { return h[i].utility > h[j].utility }
func (h vertexHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *vertexHeap) Push(x any)        { v := x.(*vertex); v.index = len(*h); *h = append(*h, v) }
func (h *vertexHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	v.index = -1
	*h = old[:n-1]
	return v
}

// Searcher runs adaptation searches against an evaluator.
type Searcher struct {
	eval *Evaluator
	opts SearchOptions

	// vpool recycles search vertices across expansions and searches.
	// Stale duplicates popped from the frontier were never expanded, so
	// nothing references them and they return to the pool immediately.
	vpool sync.Pool

	// Observability sinks, resolved at construction (see obs.SetDefault)
	// and rebindable with SetObserver. All are nil-safe no-ops when
	// observability is disabled.
	log         *slog.Logger
	tr          *obs.Tracer
	cInvoked    *obs.Counter
	cExpanded   *obs.Counter
	cGenerated  *obs.Counter
	cPruned     *obs.Counter
	cTruncated  *obs.Counter
	hExpansions *obs.Histogram
	hSearchMS   *obs.Histogram
	hBatch      *obs.Histogram

	// Trace context for expansion-batch events: tc identifies the
	// window, tcName the owning controller (span-ID uniqueness across
	// parallel 1st-level searches), traceBase the search's virtual start
	// time (set by the controller each Decide). Observational only.
	tc        obs.TraceContext
	tcName    string
	traceBase time.Duration
}

// expandBatchEvery is how many expansions one "search:batch" trace
// event covers — coarse enough that a 2 500-expansion search stays
// under ~40 events, fine enough to localize a stall inside the search.
const expandBatchEvery = 64

// SetTrace installs the current window's trace context under the given
// controller name; subsequent searches emit "search:batch" events
// carrying the shared trace ID.
func (s *Searcher) SetTrace(tc obs.TraceContext, name string) {
	s.tc = tc
	s.tcName = name
}

// NewSearcher builds a searcher.
func NewSearcher(eval *Evaluator, opts SearchOptions) *Searcher {
	s := &Searcher{eval: eval, opts: opts.withDefaults()}
	s.vpool.New = func() any { return new(vertex) }
	s.SetObserver(obs.Default())
	return s
}

// getVertex draws a zeroed vertex from the pool.
func (s *Searcher) getVertex() *vertex {
	return s.vpool.Get().(*vertex)
}

// putVertex returns a vertex nothing references anymore. The struct is
// cleared so pooled vertices do not pin configuration maps or parents.
func (s *Searcher) putVertex(v *vertex) {
	*v = vertex{}
	s.vpool.Put(v)
}

// SetObserver rebinds the searcher's observability sinks (construction
// resolves the process default); pass nil to disable.
func (s *Searcher) SetObserver(o *obs.Observer) {
	s.log = o.Logger()
	s.tr = o.Tracer()
	s.cInvoked = o.Counter("search_invocations_total")
	s.cExpanded = o.Counter("search_expansions_total")
	s.cGenerated = o.Counter("search_generated_total")
	s.cPruned = o.Counter("search_pruned_children_total")
	s.cTruncated = o.Counter("search_truncated_total")
	s.hExpansions = o.Histogram("search_expansions", []float64{10, 50, 100, 250, 500, 1000, 2500})
	s.hSearchMS = o.Histogram("search_time_ms", []float64{1, 5, 10, 50, 100, 500, 1000, 5000})
	s.hBatch = o.Histogram("search_batch_children", []float64{1, 2, 4, 8, 16, 32, 64, 128})
}

// Search finds the action sequence maximizing Eq. 3 from configuration cfg
// under the given workload, control window cw, ideal configuration (the
// admissible cost-to-go), and action space. expected carries UH for the
// Self-Aware trigger; it is ignored by the naive search.
func (s *Searcher) Search(cfg cluster.Config, rates map[string]float64, cw time.Duration, ideal Ideal, expected ExpectedUtility, space cluster.ActionSpace) (SearchResult, error) {
	res, err := s.search(cfg, rates, cw, ideal, expected, space)
	if err == nil {
		s.record(res)
	}
	return res, err
}

// record flushes one completed search into the metrics registry.
func (s *Searcher) record(res SearchResult) {
	if s.cInvoked == nil {
		return
	}
	s.cInvoked.Inc()
	s.cExpanded.Add(int64(res.Expanded))
	s.cGenerated.Add(int64(res.Generated))
	s.cPruned.Add(int64(res.PrunedChildren))
	if res.Truncated {
		s.cTruncated.Inc()
	}
	s.hExpansions.Observe(float64(res.Expanded))
	s.hSearchMS.Observe(float64(res.SearchTime) / float64(time.Millisecond))
}

func (s *Searcher) search(cfg cluster.Config, rates map[string]float64, cw time.Duration, ideal Ideal, expected ExpectedUtility, space cluster.ActionSpace) (SearchResult, error) {
	opts := s.opts
	cwSec := cw.Seconds()
	if cwSec <= 0 {
		return SearchResult{}, fmt.Errorf("core: non-positive control window %v", cw)
	}
	idealRate := ideal.Steady.NetRate()
	// One workload fingerprint for the whole search: every steady lookup
	// below shares it instead of re-fingerprinting the rates map per child.
	rfp := s.eval.RatesFingerprint(rates)

	// As in the paper: if the ideal configuration equals the current one,
	// no adaptation is worth considering.
	if ideal.Config.Equal(cfg) {
		st, err := s.eval.SteadyFP(cfg, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}
		res := SearchResult{Utility: cwSec * st.NetRate()}
		if opts.Provenance {
			res.Prov = newDigestBuilder(0).finalize(provenance.TermNoChange, &res,
				s.eval.PlanLedger(cfg, rates, cw, nil), nil)
		}
		return res, nil
	}

	remaining := func(d time.Duration) float64 {
		r := (cw - d).Seconds()
		if r < 0 {
			return 0
		}
		return r
	}

	// Distance shaping: the admissible bound (CW−D)·U* is identical for
	// every intermediate, so best-first search would wander plateaus of
	// near-free actions. The same weighted Euclidean distance §IV-B defines
	// for pruning is folded into the cost-to-go as a penalty scaled so that
	// traversing the full distance from the current configuration to the
	// ideal one forfeits shapingFraction of the potential gain. This grades
	// the frontier toward c* at the price of ε-bounded (rather than exact)
	// optimality.
	curRate := 0.0
	if st, err := s.eval.SteadyFP(cfg, rates, rfp); err == nil {
		curRate = st.NetRate()
	}
	// dc folds the same distance as ConfigDistance, bit-for-bit, against
	// per-search precomputed ideal state — and can measure a staged child
	// through its Delta overlay before the child exists.
	dc := newDistancer(s.eval.cat, ideal.Config)
	rootDist := dc.distance(cfg, nil)
	var distWeight float64
	if gain := (idealRate - curRate) * cwSec; gain > 0 && rootDist > 1e-9 {
		distWeight = shapingFraction * gain / rootDist
	}

	root := &vertex{cfg: cfg, fp: cfg.Fingerprint()}
	root.utility = root.accrued + remaining(root.dur)*idealRate
	if distWeight > 0 {
		root.utility -= distWeight * rootDist
	}

	open := &vertexHeap{}
	heap.Init(open)
	heap.Push(open, root)
	bestByKey := map[cluster.Fingerprint]float64{root.fp: root.utility}

	res := SearchResult{RootDistance: rootDist, PeakFrontier: 1}
	var bestCandidate *vertex
	var dig *digestBuilder
	if opts.Provenance {
		dig = newDigestBuilder(rootDist)
	}
	dbg := s.log.Enabled(context.Background(), slog.LevelDebug)

	// Self-awareness state (Algorithm 1). The cost of searching has two
	// parts: the power the controller host burns (UpwrT) and the utility
	// forgone by lingering in the current configuration instead of an
	// expected-quality one while the search runs (UT). When their sum
	// reaches the expected utility UH of the coming window — or the delay
	// threshold T̄ passes — the search restricts its width. A system
	// bleeding utility therefore triggers restriction almost immediately:
	// deciding soon beats deciding optimally.
	searchRate := -s.eval.util.PowerRate(searchWatts) // $/s burned by searching
	uh := expected.Total
	var ut, upwrT float64
	var elapsed time.Duration
	curSteady, err := s.eval.SteadyFP(cfg, rates, rfp)
	if err != nil {
		return SearchResult{}, err
	}
	expectedRate := expected.PerfRate + expected.PwrRate
	forgoneRate := expectedRate - curSteady.NetRate()
	if forgoneRate < 0 {
		forgoneRate = 0 // a current config above expectations forgoes nothing
	}
	delayThreshold := time.Duration(float64(cw) * opts.DelayFraction)

	finish := func(v *vertex, term string) SearchResult {
		res.Plan = planOf(v)
		res.Utility = v.utility
		res.SearchTime = elapsed
		res.SearchCost = upwrT
		if dig != nil {
			res.Prov = dig.finalize(term, &res,
				s.eval.PlanLedger(cfg, rates, cw, res.Plan),
				harvestRejected(s.eval, open, bestByKey, v, cfg, ideal.Config, rates, cw))
		}
		return res
	}

	// stayPut ends the search with no adaptation (the frontier drained or a
	// cap fired before any candidate was found): keep the current
	// configuration for the window.
	stayPut := func(term string) (SearchResult, error) {
		st, err := s.eval.SteadyFP(cfg, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}
		res.SearchTime = elapsed
		res.SearchCost = upwrT
		res.Utility = cwSec * st.NetRate()
		if dig != nil {
			res.Prov = dig.finalize(term, &res,
				s.eval.PlanLedger(cfg, rates, cw, nil),
				harvestRejected(s.eval, open, bestByKey, nil, cfg, ideal.Config, rates, cw))
		}
		return res, nil
	}

	// Scratch reused across expansions so the steady-state loop allocates
	// only for surviving children and heap growth.
	var descs []childDesc
	var pruneIdx []int
	var batchStart time.Duration // virtual start of the current trace batch

	slack := epsilonMargin * (math.Abs(idealRate)*cwSec + 1e-9)
	for open.Len() > 0 {
		vmax := heap.Pop(open).(*vertex)
		if vmax.utility < bestByKey[vmax.fp]-1e-12 && !vmax.finished {
			// Stale duplicate: a better path to this configuration was
			// found after this vertex was pushed. It was never expanded, so
			// nothing references it and it can be recycled.
			s.putVertex(vmax)
			continue
		}
		if vmax.finished {
			return finish(vmax, provenance.TermGoal), nil
		}
		// ε-termination: the frontier's optimism has decayed to within the
		// margin of the best complete plan.
		if bestCandidate != nil && bestCandidate.utility >= vmax.utility-slack {
			// The popped head goes back on the heap first: it is the very
			// alternative the search declined to explore, and the rejected
			// digest should lead with it.
			if dig != nil {
				heap.Push(open, vmax)
			}
			return finish(bestCandidate, provenance.TermEpsilon), nil
		}
		// Self-aware deadline: once the search has run twice past its delay
		// budget it commits to the best complete plan found — a suboptimal
		// decision now beats an optimal one whose cost is never recouped
		// ("consuming power to save power").
		if opts.SelfAware && elapsed >= 2*delayThreshold && bestCandidate != nil {
			if dig != nil {
				heap.Push(open, vmax)
			}
			return finish(bestCandidate, provenance.TermDeadline), nil
		}
		if res.Expanded >= opts.MaxExpansions {
			res.Truncated = true
			if dig != nil {
				heap.Push(open, vmax)
			}
			if bestCandidate != nil {
				return finish(bestCandidate, provenance.TermMaxExpansions), nil
			}
			// No candidate seen: stay put.
			return stayPut(provenance.TermMaxExpansions)
		}
		res.Expanded++
		// Expansion-batch trace events: every expandBatchEvery expansions
		// close one "search:batch" span carrying the window's trace ID,
		// so a slow search localizes to a batch on the causal timeline.
		if s.tr != nil && s.tc.Enabled() && res.Expanded%expandBatchEvery == 0 {
			s.tr.Event("search:batch", s.traceBase+batchStart, s.traceBase+elapsed,
				s.tc.Attr(),
				obs.Attr{Key: "span", Value: s.tc.SpanID(s.tcName, "search", fmt.Sprintf("batch%04d", res.Expanded/expandBatchEvery))},
				obs.Attr{Key: "controller", Value: s.tcName},
				obs.Attr{Key: "expanded", Value: res.Expanded},
				obs.Attr{Key: "generated", Value: res.Generated},
				obs.Attr{Key: "frontier", Value: open.Len()})
			batchStart = elapsed
		}
		if dig != nil {
			dig.vertex(res.Expanded, vmax.depth, vmax.utility, vmax.accrued,
				dc.distance(vmax.cfg, nil), open.Len())
		}
		if dbg && res.Expanded%50 == 1 {
			s.log.Debug("search pop",
				"expanded", res.Expanded,
				"utility", vmax.utility,
				"depth", vmax.depth,
				"plan_dur", vmax.dur,
				"distance", dc.distance(vmax.cfg, nil),
				"accrued", vmax.accrued,
				"frontier", open.Len())
		}

		parentSteady, err := s.eval.SteadyFP(vmax.cfg, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}

		// Generate children: every feasible action plus "null" when the
		// configuration is a candidate. Children are *staged*, not built:
		// each worker validates its action (Stage), prices the transient
		// (against the parent configuration), and derives the child's
		// fingerprint, distance, and priority through the Delta overlay —
		// no map is cloned. Workers fill per-action slots merged in
		// enumeration order, so the frontier — and with it the plan,
		// pruning, and self-aware accounting — is byte-identical at every
		// Workers setting. Only children that survive dedup and pruning
		// are materialized, as copy-on-write clones of the parent.
		actions := cluster.Enumerate(s.eval.cat, vmax.cfg, space)
		var finChild *vertex
		if vmax.cfg.IsCandidate(s.eval.cat) {
			finChild = s.getVertex()
			*finChild = vertex{
				cfg:      vmax.cfg,
				fp:       vmax.fp,
				parent:   vmax.parent,
				act:      vmax.act,
				depth:    vmax.depth,
				dur:      vmax.dur,
				accrued:  vmax.accrued,
				finished: true,
			}
			finChild.utility = vmax.accrued + remaining(vmax.dur)*parentSteady.NetRate()
		}
		if cap(descs) < len(actions) {
			descs = make([]childDesc, len(actions))
		}
		descs = descs[:len(actions)]
		par.For(len(actions), opts.Workers, func(i int) {
			descs[i] = childDesc{}
			filled, delta, err := cluster.Stage(s.eval.cat, vmax.cfg, actions[i])
			if err != nil {
				return
			}
			ac := s.eval.Action(vmax.cfg, parentSteady, filled, rates)
			// A plan must fit the control window: actions past its end
			// would be charged against benefits the window cannot see —
			// when the current configuration is bleeding, arbitrarily long
			// plans would otherwise look free beyond the horizon.
			if vmax.dur+ac.Duration > cw {
				return
			}
			d := &descs[i]
			d.act = filled
			d.delta = delta
			d.fp = vmax.cfg.FingerprintWith(delta)
			d.dur = vmax.dur + ac.Duration
			d.accrued = vmax.accrued + ac.Duration.Seconds()*ac.Rate
			d.dist = dc.distance(vmax.cfg, &d.delta)
			d.utility = d.accrued + remaining(d.dur)*idealRate
			if distWeight > 0 {
				d.utility -= distWeight * d.dist
			}
			d.ok = true
		})
		nChildren := 0
		if finChild != nil {
			nChildren++
		}
		for i := range descs {
			if descs[i].ok {
				nChildren++
			}
		}
		res.Generated += nChildren
		s.hBatch.Observe(float64(nChildren))

		// order lists the surviving children as descriptor indices (-1 is
		// the finished candidate), in the sequence they reach the heap:
		// enumeration order normally, distance-sorted order after a prune —
		// insertion order breaks heap ties, so it must match what inserting
		// pruneByDistance's sorted output produced.
		order := pruneIdx[:0]
		if finChild != nil {
			order = append(order, -1)
		}
		for i := range descs {
			if descs[i].ok {
				order = append(order, i)
			}
		}

		// Self-aware accounting: charge the time spent producing this
		// expansion, then prune if the search has outspent its budget.
		t := time.Duration(nChildren) * opts.TimePerChild
		elapsed += t
		upwrT += t.Seconds() * searchRate
		ut += t.Seconds() * forgoneRate
		uh -= t.Seconds() * expectedRate
		if opts.SelfAware && ((ut+upwrT) >= uh || elapsed >= delayThreshold) {
			before := nChildren
			keep := int(math.Ceil(float64(nChildren) * opts.PruneFraction))
			if keep < pruneMinKeep {
				keep = pruneMinKeep
			}
			if keep < nChildren {
				// Keep the fraction closest to the ideal: the finished
				// candidate (distance -1) is never pruned, ties keep
				// enumeration order (stable sort).
				distAt := func(i int) float64 {
					if i < 0 {
						return -1
					}
					return descs[i].dist
				}
				sort.SliceStable(order, func(a, b int) bool { return distAt(order[a]) < distAt(order[b]) })
				order = order[:keep]
				nChildren = keep
			}
			res.PrunedChildren += before - nChildren
			res.Pruned = true
			if dig != nil && before > nChildren {
				// Algorithm 1 has two triggers; name the one that fired
				// (budget wins when both hold — it is the stronger signal).
				reason := provenance.ReasonDelayThreshold
				if (ut + upwrT) >= uh {
					reason = provenance.ReasonUtilityBudget
				}
				dig.event(res.Expanded, provenance.EventWidthPrune, reason, before-nChildren, elapsed)
			}
		}
		pruneIdx = order[:0]

		for _, i := range order {
			if i < 0 {
				if bestCandidate == nil || finChild.utility > bestCandidate.utility {
					bestCandidate = finChild
				}
				heap.Push(open, finChild)
				continue
			}
			d := &descs[i]
			if prev, seen := bestByKey[d.fp]; seen && d.utility <= prev {
				continue
			}
			bestByKey[d.fp] = d.utility
			// Materialize the survivor: a copy-on-write clone sharing the
			// parent's maps, with only the map the delta touches copied.
			// Done serially — the parent is frozen from here on.
			ccfg := vmax.cfg.CloneShared()
			ccfg.ApplyDelta(d.delta)
			child := s.getVertex()
			*child = vertex{
				cfg:     ccfg,
				fp:      d.fp,
				parent:  vmax,
				act:     d.act,
				depth:   vmax.depth + 1,
				dur:     d.dur,
				accrued: d.accrued,
				utility: d.utility,
			}
			heap.Push(open, child)
		}
		if open.Len() > res.PeakFrontier {
			res.PeakFrontier = open.Len()
		}
	}

	// Open set exhausted without a finished vertex (tiny action spaces):
	// stay put.
	return stayPut(provenance.TermExhausted)
}

// Distance weights: roughly proportional to the transient cost of the
// action that repairs each kind of mismatch, so that the shaped cost-to-go
// refunds structural progress (host power, placement) in proportion to what
// reaching it costs, instead of letting cheap CPU plateaus dominate.
const (
	distHostWeight  = 1.5  // start/stop host per mismatched power state
	distPlaceWeight = 1.0  // migration or replica add/remove per VM
	distCPUWeight   = 0.02 // per 10% CPU-step gap, weighted by ideal size
	distFreqWeight  = 0.02 // DVFS transitions are near-free
)

// ConfigDistance measures how far a configuration is from the ideal one,
// following §IV-B: per-VM CPU differences weighted by the VM's relative
// size in the ideal configuration, plus placement and host power-state
// mismatch counts. It is used both to prune expansions in the Self-Aware
// search and to shape the search's cost-to-go.
func ConfigDistance(cfg, ideal cluster.Config) float64 {
	idealVMs := ideal.ActiveVMs()
	var totalIdeal float64
	for _, id := range idealVMs {
		p, _ := ideal.PlacementOf(id)
		totalIdeal += p.CPUPct
	}
	var dist float64
	seen := make(map[cluster.VMID]bool, len(idealVMs))
	for _, id := range idealVMs {
		ip, _ := ideal.PlacementOf(id)
		seen[id] = true
		p, active := cfg.PlacementOf(id)
		if !active {
			// Dormant here, active in the ideal: one replica addition.
			dist += distPlaceWeight
			continue
		}
		if p.Host != ip.Host {
			// One migration.
			dist += distPlaceWeight
		}
		// CPU gap in steps, weighted by relative ideal size (§IV-B's
		// "2 times more weight to VMi than VMj" rule).
		w := 1.0
		if totalIdeal > 0 {
			w = ip.CPUPct / totalIdeal * float64(len(idealVMs))
		}
		dist += distCPUWeight * w * math.Abs(p.CPUPct-ip.CPUPct) / 10
	}
	// Active here, dormant in the ideal: one replica removal.
	for _, id := range cfg.ActiveVMs() {
		if !seen[id] {
			dist += distPlaceWeight
		}
	}
	// Host power-state mismatches: one power-cycling action each. Without
	// this term, starting a host toward the ideal would look like zero
	// progress and the search could never justify it.
	// Mismatches are counted first and folded in once: adding the two
	// weights in map-iteration order would perturb the distance's last
	// bits from run to run, and the search compares distances exactly.
	union := make(map[string]bool)
	for _, h := range cfg.ActiveHosts() {
		union[h] = true
	}
	for _, h := range ideal.ActiveHosts() {
		union[h] = true
	}
	var powerMismatch, freqMismatch int
	for h := range union {
		if cfg.HostOn(h) != ideal.HostOn(h) {
			powerMismatch++
		}
		if cfg.HostFreq(h) != ideal.HostFreq(h) {
			freqMismatch++
		}
	}
	dist += float64(powerMismatch)*distHostWeight + float64(freqMismatch)*distFreqWeight
	return dist
}
