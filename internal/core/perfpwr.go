package core

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/par"
)

// Ideal is the output of the Perf-Pwr optimizer: the configuration that
// optimally trades performance against power for the current workload when
// transient adaptation costs are ignored, and its utility rates. Its net
// rate is the admissible cost-to-go heuristic of the A* search.
type Ideal struct {
	Config cluster.Config
	Steady Steady
}

// PerfPwrScope selects how much freedom the Perf-Pwr optimizer has.
type PerfPwrScope int

// Scopes.
const (
	// ScopeFull repacks every VM (including dormant replicas) onto as few
	// hosts as possible (the 2nd-level controller's view).
	ScopeFull PerfPwrScope = iota + 1
	// ScopeSubset repacks only the VMs currently placed within a host
	// subset, holding the rest of the system fixed (the 1st-level
	// controllers' view: CPU tuning plus migrations inside their group).
	ScopeSubset
)

// PerfPwrOptions tunes the optimizer.
type PerfPwrOptions struct {
	// Hosts restricts the optimizer to a subset of hosts (hierarchy
	// levels); empty means all hosts.
	Hosts []string
	// VMZonePins constrains individual VMs to a data-center zone.
	// Controllers that cannot migrate across the WAN pin every currently
	// active VM to its present zone — dormant replicas stay free, exactly
	// mirroring what such a controller can actually reach (same-zone
	// migrations plus replica additions anywhere).
	VMZonePins map[cluster.VMID]string
	// AppHostPools confines each application's VMs to a fixed host pool
	// (the Perf-Cost baseline's "2 hosts per application").
	AppHostPools map[string][]string
	// Workers bounds the goroutines evaluating sweep arms (host-count ×
	// affinity-variant combinations) concurrently (default
	// min(GOMAXPROCS, 8); 1 reproduces the serial path). The winner is
	// selected by the serial sweep's deterministic order regardless.
	Workers int
}

// PerfPwr implements the optimizer of §IV-A. For each candidate number of
// active hosts, from all available down to the minimum able to hold the
// required VMs at minimum capacity, it starts from maximum CPU allocations
// for every replica and repeatedly (a) reduces an individual VM's capacity
// by one step or (b) removes a replica, choosing the candidate with the
// highest utilization-per-utility gradient ∇ρ, until the VMs bin-pack onto
// the hosts (worst-fit). The packed configuration with the highest overall
// utility rate across host counts is the ideal configuration c*.
func PerfPwr(e *Evaluator, rates map[string]float64, opts PerfPwrOptions) (Ideal, error) {
	hosts := opts.Hosts
	if len(hosts) == 0 {
		hosts = e.cat.HostNames()
	}

	scope := packScope{
		managed:             e.cat.VMIDs(),
		fixed:               cluster.NewConfig(),
		allowReplicaRemoval: true,
		zonePins:            opts.VMZonePins,
		appPools:            opts.AppHostPools,
	}
	minHosts := minHostsNeeded(e.cat, hosts)
	return sweepHostCounts(e, rates, scope, hosts, minHosts, opts.Workers)
}

// VMZonePinsOf pins every active VM of a configuration to its current
// zone: the reachability constraint of controllers without WAN migration.
func VMZonePinsOf(cat *cluster.Catalog, cfg cluster.Config) map[cluster.VMID]string {
	pins := make(map[cluster.VMID]string)
	for _, id := range cfg.ActiveVMs() {
		p, _ := cfg.PlacementOf(id)
		pins[id] = cat.ZoneOf(p.Host)
	}
	return pins
}

// PerfPwrSubset is the 1st-level controllers' ideal: repack only the VMs
// currently placed within the host subset (no replication changes), holding
// everything outside the subset fixed. workers bounds the sweep's
// concurrency as in PerfPwrOptions.Workers (0 = default, 1 = serial).
func PerfPwrSubset(e *Evaluator, base cluster.Config, rates map[string]float64, hosts []string, workers int) (Ideal, error) {
	if len(hosts) == 0 {
		hosts = e.cat.HostNames()
	}
	// A 1st-level controller cannot cycle host power: only hosts already on
	// are packing targets, and they stay on (and drawing power) even when
	// the packing leaves them empty.
	onHosts := make([]string, 0, len(hosts))
	inScope := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		if base.HostOn(h) {
			onHosts = append(onHosts, h)
			inScope[h] = true
		}
	}
	hosts = onHosts
	fixed := base.Clone()
	var managed []cluster.VMID
	for _, id := range base.ActiveVMs() {
		p, _ := base.PlacementOf(id)
		if inScope[p.Host] {
			managed = append(managed, id)
			fixed.Unplace(id)
		}
	}
	if len(managed) == 0 || len(hosts) == 0 {
		st, err := e.Steady(base, rates)
		if err != nil {
			return Ideal{}, err
		}
		return Ideal{Config: base.Clone(), Steady: st}, nil
	}
	scope := packScope{managed: managed, fixed: fixed}
	return sweepHostCounts(e, rates, scope, hosts, 1, workers)
}

// PerfPwrMeetingTargets is the modified Perf-Pwr optimizer behind the
// Pwr-Cost baseline (§V-C): identical to PerfPwr except that no reduction
// may push any application's predicted response time past its target —
// capacities stay "large enough that the target response time can be met".
// It returns an error when even maximum capacities cannot meet the targets
// on any host count.
func PerfPwrMeetingTargets(e *Evaluator, rates map[string]float64) (Ideal, error) {
	targets := make(map[string]float64, len(e.util.Apps))
	for name, a := range e.util.Apps {
		targets[name] = a.TargetRT.Seconds()
	}
	scope := packScope{
		managed:             e.cat.VMIDs(),
		fixed:               cluster.NewConfig(),
		allowReplicaRemoval: true,
		rtTargets:           targets,
	}
	hosts := e.cat.HostNames()
	ideal, err := sweepHostCounts(e, rates, scope, hosts, minHostsNeeded(e.cat, hosts), 0)
	if err != nil {
		return Ideal{}, fmt.Errorf("core: no configuration meets all response-time targets: %w", err)
	}
	return ideal, nil
}

// EvaluatePlan computes Eq. 3 for executing a plan from cfg: transient
// accrual during each action plus steady accrual of the final configuration
// for the rest of the control window. An empty plan yields the stay-put
// utility.
func EvaluatePlan(e *Evaluator, cfg cluster.Config, plan []cluster.Action, rates map[string]float64, cw time.Duration) (float64, error) {
	var total float64
	var spent time.Duration
	cur := cfg
	for i, a := range plan {
		st, err := e.Steady(cur, rates)
		if err != nil {
			return 0, err
		}
		next, filled, err := cluster.Apply(e.cat, cur, a)
		if err != nil {
			return 0, fmt.Errorf("core: evaluating plan step %d: %w", i, err)
		}
		ac := e.Action(cur, st, filled, rates)
		charged := ac.Duration
		if left := cw - spent; charged > left {
			charged = left
		}
		if charged > 0 {
			total += charged.Seconds() * ac.Rate
		}
		spent += ac.Duration
		cur = next
	}
	if remaining := cw - spent; remaining > 0 {
		st, err := e.Steady(cur, rates)
		if err != nil {
			return 0, err
		}
		total += remaining.Seconds() * st.NetRate()
	}
	return total, nil
}

// sweepHostCounts runs the reduction/packing loop for every candidate host
// count and keeps the best packed configuration. The arms — one per
// (host count, affinity variant) pair — are independent full reduction
// loops, so they evaluate concurrently on the worker pool; the fold over
// their indexed results replays the serial sweep's order exactly, so the
// winner (selected by strict improvement) and any returned error are
// identical at every workers setting.
func sweepHostCounts(e *Evaluator, rates map[string]float64, scope packScope, hosts []string, minHosts, workers int) (Ideal, error) {
	multiZone := len(e.cat.Zones()) > 1
	type arm struct {
		n     int
		scope packScope
	}
	var arms []arm
	for n := len(hosts); n >= minHosts; n-- {
		arms = append(arms, arm{n, scope})
		if multiZone {
			alt := scope
			alt.noAffinity = true
			arms = append(arms, arm{n, alt})
		}
	}
	e.cSweepArms.Add(int64(len(arms)))

	type armResult struct {
		ideal Ideal
		ok    bool
		err   error
	}
	results := make([]armResult, len(arms))
	par.For(len(arms), par.Workers(workers), func(i int) {
		a := arms[i]
		cfg, ok, err := packWithReduction(e, rates, a.scope, hosts[:a.n])
		if err != nil || !ok {
			results[i] = armResult{err: err}
			return
		}
		cfg, steady, err := polishAllocations(e, cfg, rates, a.scope)
		if err != nil {
			results[i] = armResult{err: err}
			return
		}
		results[i] = armResult{ideal: Ideal{Config: cfg, Steady: steady}, ok: true}
	})

	var best *Ideal
	dbg := e.log.Enabled(context.Background(), slog.LevelDebug)
	for i, r := range results {
		if r.err != nil {
			return Ideal{}, r.err
		}
		if !r.ok {
			continue
		}
		if dbg {
			e.log.Debug("perfpwr sweep",
				"hosts", arms[i].n,
				"no_affinity", arms[i].scope.noAffinity,
				"net_rate", r.ideal.Steady.NetRate(),
				"config", fmt.Sprint(r.ideal.Config))
		}
		if best == nil || r.ideal.Steady.NetRate() > best.Steady.NetRate() {
			b := r.ideal
			best = &b
		}
	}
	if best == nil {
		return Ideal{}, fmt.Errorf("core: Perf-Pwr found no feasible configuration on %d hosts", len(hosts))
	}
	return tuneDVFS(e, *best, rates, scope)
}

// polishAllocations hill-climbs a packed configuration's CPU allocations:
// the reduction loop stops at the *first* packable state, which can leave
// allocations unbalanced (one tier starved just past the penalty cliff,
// others over-provisioned). Single ±step moves that improve the net
// utility rate — staying within host capacity, the VM minimum, and any
// hard response-time targets — are applied until none remains.
func polishAllocations(e *Evaluator, cfg cluster.Config, rates map[string]float64, scope packScope) (cluster.Config, Steady, error) {
	cat := e.cat
	cur, err := e.Steady(cfg, rates)
	if err != nil {
		return cluster.Config{}, Steady{}, err
	}
	managed := make(map[cluster.VMID]bool, len(scope.managed))
	for _, id := range scope.managed {
		managed[id] = true
	}
	for iter := 0; iter < 64; iter++ {
		improved := false
		for _, id := range cfg.ActiveVMs() {
			if !managed[id] {
				continue
			}
			p, _ := cfg.PlacementOf(id)
			spec, _ := cat.Host(p.Host)
			for _, delta := range []float64{cat.CPUStepPct, -cat.CPUStepPct} {
				next := p.CPUPct + delta
				if next < cat.MinCPUPct-1e-9 || next > spec.UsableCPUPct+1e-9 {
					continue
				}
				if delta > 0 && cfg.AllocatedCPU(p.Host)+delta > spec.UsableCPUPct+1e-9 {
					continue
				}
				cand := cfg.Clone()
				cand.Place(id, p.Host, next)
				st, err := e.Steady(cand, rates)
				if err != nil {
					return cluster.Config{}, Steady{}, err
				}
				if st.NetRate() > cur.NetRate()+1e-12 && scope.meetsTargets(st, rates) {
					cfg, cur = cand, st
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cfg, cur, nil
}

// tuneDVFS greedily downclocks DVFS-capable hosts of an ideal configuration
// while the net utility rate improves (the §VI extension: lower voltage
// saves power; the model prices the response-time cost). Response-time
// targets are never violated: explicit scope targets when present,
// otherwise the evaluator's utility targets — downclocking is a quiet-phase
// optimization, not a reason to miss objectives.
func tuneDVFS(e *Evaluator, ideal Ideal, rates map[string]float64, scope packScope) (Ideal, error) {
	if scope.rtTargets == nil {
		scope.rtTargets = make(map[string]float64, len(e.util.Apps))
		for name, a := range e.util.Apps {
			scope.rtTargets[name] = a.TargetRT.Seconds()
		}
	}
	// Guard band: a downclocked host must still meet targets if the
	// workload grows ~30% before the next decision — frequency scaling is
	// a quiet-phase optimization and must not amplify the next ramp.
	guard := make(map[string]float64, len(rates))
	for name, r := range rates {
		guard[name] = r * 1.3
	}
	if st, err := e.Steady(ideal.Config, guard); err != nil || !scope.meetsTargets(st, guard) {
		// The best packing has no slack (or is already overloaded):
		// frequency scaling has nothing safe to offer.
		return ideal, err
	}
	improved := true
	for improved {
		improved = false
		for _, h := range ideal.Config.ActiveHosts() {
			spec, ok := e.cat.Host(h)
			if !ok || !spec.SupportsDVFS() {
				continue
			}
			for _, f := range spec.DVFSLevels {
				if f == ideal.Config.HostFreq(h) {
					continue
				}
				cand := ideal.Config.Clone()
				cand.SetHostFreq(h, f)
				st, err := e.Steady(cand, rates)
				if err != nil {
					return Ideal{}, err
				}
				if st.NetRate() <= ideal.Steady.NetRate()+1e-12 || !scope.meetsTargets(st, rates) {
					continue
				}
				// The guard band: still within targets at 1.3× the rates.
				gst, err := e.Steady(cand, guard)
				if err != nil {
					return Ideal{}, err
				}
				if !scope.meetsTargets(gst, guard) {
					continue
				}
				ideal = Ideal{Config: cand, Steady: st}
				improved = true
			}
		}
	}
	return ideal, nil
}

// minHostsNeeded lower-bounds the host count able to hold one replica of
// every required tier at minimum capacity.
func minHostsNeeded(cat *cluster.Catalog, hosts []string) int {
	var required int
	for _, k := range cat.Tiers() {
		if cat.TierRequired(k) {
			required++
		}
	}
	if required == 0 || len(hosts) == 0 {
		return 1
	}
	spec, _ := cat.Host(hosts[0])
	byCount := int(math.Ceil(float64(required) / float64(spec.MaxVMs)))
	byCPU := int(math.Ceil(float64(required) * cat.MinCPUPct / spec.UsableCPUPct))
	perHostMem := (spec.MemoryMB - spec.Dom0MemoryMB) / 200
	byMem := 1
	if perHostMem > 0 {
		byMem = int(math.Ceil(float64(required) / float64(perHostMem)))
	}
	n := byCount
	if byCPU > n {
		n = byCPU
	}
	if byMem > n {
		n = byMem
	}
	if n < 1 {
		n = 1
	}
	return n
}

// packScope bounds what the reduction/packing loop may touch: the VMs it
// places (everything else is held fixed), whether it may deactivate
// replicas, and optional hard response-time ceilings that reductions must
// not violate (the "modified Perf-Pwr optimizer" behind the Pwr-Cost
// baseline).
type packScope struct {
	managed             []cluster.VMID
	fixed               cluster.Config
	allowReplicaRemoval bool
	rtTargets           map[string]float64
	zonePins            map[cluster.VMID]string
	appPools            map[string][]string
	// noAffinity disables the soft same-zone preference for unpinned VMs
	// (pins stay hard). The sweep tries both variants: zone-local packing
	// wins on WAN latency, cross-zone packing wins when the home zone has
	// no capacity left — the model's net rate arbitrates.
	noAffinity bool
}

func (s packScope) meetsTargets(st Steady, rates map[string]float64) bool {
	if s.rtTargets == nil {
		return true
	}
	for appName, target := range s.rtTargets {
		if rates[appName] > 0 && st.RTSec[appName] > target {
			return false
		}
	}
	return true
}

// packWithReduction runs the §IV-A loop for a fixed host subset.
//
// The loop works on dense state (see reduction): each managed VM has an
// ordinal in sorted-ID order, a CPU allocation and an active flag. Each
// candidate reduction is applied in place, scored, and undone by writing
// back the exact saved value (never by re-adding the step, whose rounding
// could drift); only the best candidate's ordinal, kind and scores are
// kept, and the winner is re-applied at the end of the round.
func packWithReduction(e *Evaluator, rates map[string]float64, scope packScope, hosts []string) (cluster.Config, bool, error) {
	cat := e.cat
	r := newReduction(e, rates, scope, hosts)

	curSt, err := r.steady()
	if err != nil {
		return cluster.Config{}, false, err
	}
	curRho, curPerf := r.rho(), curSt.PerfRate
	if !scope.meetsTargets(curSt, rates) {
		// Even maximum capacities violate a hard target: infeasible.
		return cluster.Config{}, false, nil
	}

	for iter := 0; ; iter++ {
		cfg, blocked, ok := r.binPack()
		if ok {
			if scope.rtTargets != nil {
				st, err := e.SteadyFP(cfg, rates, r.rfp)
				if err != nil {
					return cluster.Config{}, false, err
				}
				if !scope.meetsTargets(st, rates) {
					return cluster.Config{}, false, nil
				}
			}
			return cfg, true, nil
		}
		// When the blocker is pinned to a zone, cutting VMs pinned to a
		// *different* zone cannot unblock the packing — unrestricted
		// gradient cuts would starve unrelated applications first. VMs
		// pinned to the same zone and unpinned VMs (which may be hogging
		// the blocked zone) remain candidates.
		helps := func(int) bool { return true }
		if pin, pinned := scope.zonePins[r.ids[blocked]]; pinned {
			helps = func(i int) bool {
				z, ok := scope.zonePins[r.ids[i]]
				return !ok || z == pin
			}
		}

		// Score each candidate as it is generated and keep the best.
		// Highest gradient wins; ties (common when the flat penalty makes
		// further cuts to a saturated VM "free") break toward the candidate
		// with the lowest aggregate response time, so reductions spread
		// rather than starving one VM. Earlier candidates win exact ties.
		var best struct {
			vm               int
			remove           bool
			rho, perf, g, rt float64
		}
		found := false
		consider := func(vm int, remove bool) error {
			st, err := r.steady()
			if err != nil {
				return err
			}
			if !scope.meetsTargets(st, rates) {
				return nil // hard targets: this reduction is off the table
			}
			rho, perf := r.rho(), st.PerfRate
			dRho := rho - curRho
			dPerf := curPerf - perf // utility lost by the reduction
			g := math.Inf(1)
			if dPerf > 1e-12 {
				g = dRho / dPerf
			} else if dRho <= 1e-12 {
				g = 0
			}
			rt := sumRT(st)
			if !found || g > best.g || (g == best.g && rt < best.rt) {
				best.vm, best.remove = vm, remove
				best.rho, best.perf, best.g, best.rt = rho, perf, g, rt
				found = true
			}
			return nil
		}
		// (a) reduce one VM's capacity by a step.
		for i := range r.ids {
			if !r.active[i] || !helps(i) {
				continue
			}
			if old := r.cpu[i]; old-cat.CPUStepPct >= cat.MinCPUPct-1e-9 {
				r.setCPU(i, old-cat.CPUStepPct)
				err := consider(i, false)
				r.setCPU(i, old)
				if err != nil {
					return cluster.Config{}, false, err
				}
			}
		}
		// (b) remove one replica from tiers with more than one active.
		if scope.allowReplicaRemoval {
			for t := range r.tiers {
				if r.tiers[t].active <= 1 {
					continue
				}
				victim := r.lastActive(t)
				if !helps(victim) {
					continue
				}
				r.deactivate(victim)
				err := consider(victim, true)
				r.activate(victim)
				if err != nil {
					return cluster.Config{}, false, err
				}
			}
		}
		if !found {
			return cluster.Config{}, false, nil // fully reduced, still unpackable
		}
		if best.remove {
			r.deactivate(best.vm)
		} else {
			r.setCPU(best.vm, r.cpu[best.vm]-cat.CPUStepPct)
		}
		curRho, curPerf = best.rho, best.perf
		if iter > 10000 {
			return cluster.Config{}, false, fmt.Errorf("core: Perf-Pwr reduction did not converge")
		}
	}
}

// reduction is the dense state of one reduction/packing loop. The managed
// VMs sit at ordinals in sorted-ID order, the order every floating-point
// fold over them runs in, so ρ and the ideals are bit-identical to folds
// over a sorted map. Everything constant for the loop is resolved once: the
// catalog specs, each VM's ρ demand numerator, tier membership and the
// scope's fixed replica counts, and the in-scope hosts' capacity left by
// fixed VMs.
type reduction struct {
	e     *Evaluator
	scope packScope
	hosts []string
	rates map[string]float64
	rfp   RatesFP

	ids    []cluster.VMID   // managed VMs, sorted
	vms    []cluster.VMSpec // catalog spec of ids[i]
	cpu    []float64        // allocation of ids[i], meaningful while active
	active []bool
	// num is the ∇ρ demand numerator rates[app]·MeanDemandMS(tier)/1000;
	// VMs missing from the catalog or whose application the model lacks
	// are left out of ρ (inRho false).
	num   []float64
	inRho []bool
	tier  []int // index into tiers, valid for catalog VMs
	tiers []reductionTier

	// spread is the configuration the model evaluates for the current
	// state: the fixed remainder plus every active VM round-robin over the
	// host subset in ordinal order, ignoring capacity — intermediate
	// configurations are legal for model evaluation, which depends almost
	// entirely on allocations. Every mutation keeps it in step.
	spread cluster.Config

	// binPack inputs and scratch.
	hostBase []packHost // in-scope hosts with the fixed VMs' usage taken
	packHs   []packHost
	order    []int
}

// reductionTier is one catalog tier as the reduction loop sees it.
type reductionTier struct {
	members []int // ordinals of its managed replicas, ascending (catalog order)
	active  int   // active managed replicas
	fixed   int   // replicas active in the scope's fixed remainder
}

// packHost is one in-scope host's remaining capacity during binPack.
type packHost struct {
	name, zone string
	freeCPU    float64
	freeMem    int
	slots      int
	used       bool
}

// newReduction builds the loop's initial state: every managed replica
// active at maximum capacity.
func newReduction(e *Evaluator, rates map[string]float64, scope packScope, hosts []string) *reduction {
	cat := e.cat
	ids := append([]cluster.VMID(nil), scope.managed...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := len(ids)
	r := &reduction{
		e: e, scope: scope, hosts: hosts, rates: rates,
		rfp:    e.RatesFingerprint(rates),
		ids:    ids,
		vms:    make([]cluster.VMSpec, n),
		cpu:    make([]float64, n),
		active: make([]bool, n),
		num:    make([]float64, n),
		inRho:  make([]bool, n),
		tier:   make([]int, n),
		packHs: make([]packHost, len(hosts)),
		order:  make([]int, 0, n),
	}
	tiers := cat.Tiers()
	tierOf := make(map[cluster.TierKey]int, len(tiers))
	r.tiers = make([]reductionTier, len(tiers))
	for t, k := range tiers {
		tierOf[k] = t
		for _, id := range cat.TierVMs(k) {
			if scope.fixed.Active(id) {
				r.tiers[t].fixed++
			}
		}
	}
	maxCPU := cat.MaxVMCPUPct()
	for i, id := range ids {
		r.cpu[i], r.active[i] = maxCPU, true
		vm, ok := cat.VM(id)
		r.vms[i] = vm
		if !ok {
			continue
		}
		t := tierOf[cluster.TierKey{App: vm.App, Tier: vm.Tier}]
		r.tier[i] = t
		r.tiers[t].members = append(r.tiers[t].members, i)
		r.tiers[t].active++
		if spec := e.model.Apps()[vm.App]; spec != nil {
			r.inRho[i] = true
			r.num[i] = rates[vm.App] * spec.MeanDemandMS(vm.Tier) / 1000
		}
	}

	for _, h := range hosts {
		spec, _ := cat.Host(h)
		ph := packHost{
			name:    h,
			zone:    cat.ZoneOf(h),
			freeCPU: spec.UsableCPUPct,
			freeMem: spec.MemoryMB - spec.Dom0MemoryMB,
			slots:   spec.MaxVMs,
		}
		// Fixed VMs on in-scope hosts consume capacity up front.
		for _, id := range scope.fixed.VMsOnHost(h) {
			p, _ := scope.fixed.PlacementOf(id)
			vm, _ := cat.VM(id)
			ph.freeCPU -= p.CPUPct
			ph.freeMem -= vm.MemoryMB
			ph.slots--
			ph.used = true
		}
		r.hostBase = append(r.hostBase, ph)
	}

	r.spread = scope.fixed.Clone()
	for _, h := range hosts {
		r.spread.SetHostOn(h, true)
	}
	r.respread(0)
	return r
}

// steady evaluates the current state's spread configuration.
func (r *reduction) steady() (Steady, error) {
	return r.e.SteadyFP(r.spread, r.rates, r.rfp)
}

// respread re-places every active VM from ordinal from onward at its
// round-robin host, continuing the count of the active VMs before it.
func (r *reduction) respread(from int) {
	p := 0
	for i := 0; i < from; i++ {
		if r.active[i] {
			p++
		}
	}
	for i := from; i < len(r.ids); i++ {
		if r.active[i] {
			r.spread.Place(r.ids[i], r.hosts[p%len(r.hosts)], r.cpu[i])
			p++
		}
	}
}

// setCPU sets an active VM's allocation; its spread host is unchanged.
func (r *reduction) setCPU(i int, cpu float64) {
	r.cpu[i] = cpu
	p, _ := r.spread.PlacementOf(r.ids[i])
	r.spread.Place(r.ids[i], p.Host, cpu)
}

// deactivate removes an active replica; the active VMs after it each move
// one host back in the round-robin spread.
func (r *reduction) deactivate(i int) {
	r.active[i] = false
	r.tiers[r.tier[i]].active--
	r.spread.Unplace(r.ids[i])
	r.respread(i + 1)
}

// activate restores a replica deactivate removed, with its old allocation.
func (r *reduction) activate(i int) {
	r.active[i] = true
	r.tiers[r.tier[i]].active++
	r.respread(i)
}

// lastActive is the highest-ordinal active replica of a tier.
func (r *reduction) lastActive(t int) int {
	m := r.tiers[t].members
	for j := len(m) - 1; j >= 0; j-- {
		if r.active[m[j]] {
			return m[j]
		}
	}
	return -1
}

// rho is the ∇ρ numerator source: the demand-weighted mean utilization of
// the allocation, approximated from request rates and model demands.
// Higher means tighter packing potential. Each replica carries its tier's
// demand split across the tier's active replicas, managed or fixed.
func (r *reduction) rho() float64 {
	var totalDemand, totalAlloc float64
	// Ordinal order: the two sums are floating-point folds whose last
	// bits feed the ∇ρ gradient comparisons.
	for i := range r.ids {
		if !r.active[i] || !r.inRho[i] {
			continue
		}
		t := &r.tiers[r.tier[i]]
		totalDemand += r.num[i] / float64(t.active+t.fixed)
		totalAlloc += r.cpu[i] / 100
	}
	if totalAlloc <= 0 {
		return 0
	}
	return totalDemand / totalAlloc
}

// binPack attempts the paper's worst-fit packing of the current state: VMs
// in decreasing size order; each goes to the used host with the largest
// free capacity, or to a new empty host if none fits. The packed result is
// merged over the scope's fixed remainder. On failure the ordinal of the
// VM that could not be placed is returned, so the reduction loop can aim
// its next cut at the actual bottleneck.
func (r *reduction) binPack() (cluster.Config, int, bool) {
	hs := r.packHs
	copy(hs, r.hostBase)
	order := r.order[:0]
	for i := range r.ids {
		if r.active[i] {
			order = append(order, i)
		}
	}
	// Pack VMs of the same application together (largest first within an
	// app) so the zone-affinity preference below can keep each app inside
	// one data center.
	slices.SortStableFunc(order, func(a, b int) int {
		if c := strings.Compare(r.vms[a].App, r.vms[b].App); c != 0 {
			return c
		}
		return cmp.Compare(r.cpu[b], r.cpu[a])
	})

	cfg := r.scope.fixed.Clone()
	// appZone remembers where each application's first VM landed; later
	// VMs of the app prefer that zone, keeping tiers off the WAN. In
	// single-zone catalogs every host shares the "" zone and the
	// preference is vacuous (the paper's original worst-fit).
	appZone := make(map[string]string)
	for _, i := range order {
		vm := r.vms[i]
		need := r.cpu[i]
		pool, pooled := r.scope.appPools[vm.App]
		fits := func(h int) bool {
			return hs[h].freeCPU >= need-1e-9 && hs[h].freeMem >= vm.MemoryMB && hs[h].slots > 0 &&
				(!pooled || slices.Contains(pool, hs[h].name))
		}
		zone, hasZone := appZone[vm.App]
		if r.scope.noAffinity {
			hasZone = false
		}
		pin, pinned := r.scope.zonePins[r.ids[i]]
		if pinned {
			zone, hasZone = pin, true
		}
		pick := func(used bool, zoneOnly bool) int {
			target := -1
			for h := range hs {
				if hs[h].used != used || !fits(h) {
					continue
				}
				if zoneOnly && hasZone && hs[h].zone != zone {
					continue
				}
				if target < 0 || hs[h].freeCPU > hs[target].freeCPU {
					target = h
				}
				if !used {
					break // first empty host (they are interchangeable)
				}
			}
			return target
		}
		target := pick(true, true)
		if target < 0 {
			target = pick(false, true)
		}
		// A pinned application never spills to another zone; unpinned apps
		// fall back to any host (the original worst-fit).
		if target < 0 && !pinned {
			target = pick(true, false)
		}
		if target < 0 && !pinned {
			target = pick(false, false)
		}
		if target < 0 {
			return cluster.Config{}, i, false
		}
		h := &hs[target]
		h.used = true
		h.freeCPU -= need
		h.freeMem -= vm.MemoryMB
		h.slots--
		cfg.Place(r.ids[i], h.name, need)
		if !hasZone {
			appZone[vm.App] = h.zone
		}
	}
	// Power on exactly the used hosts.
	for h := range hs {
		if hs[h].used {
			cfg.SetHostOn(hs[h].name, true)
		}
	}
	return cfg, -1, true
}

// sumRT aggregates the steady response times across applications, the
// gradient tie-breaker. Sorted iteration keeps the floating-point fold
// bit-identical across runs (map order would shuffle it).
func sumRT(st Steady) float64 {
	names := make([]string, 0, len(st.RTSec))
	for name := range st.RTSec {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += st.RTSec[name]
	}
	return sum
}
