package scenario

import (
	"fmt"
	"strings"

	"bundler/internal/bundle"
	"bundler/internal/clock"
	"bundler/internal/exp"
	"bundler/internal/fluid"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/sim/shard"
	"bundler/internal/workload"
)

// This file is the N-site mesh scenario family: the paper's site-to-site
// deployment story (§9) at scale, instead of the single dumbbell pair
// every other experiment runs. N sites exchange traffic pairwise; each
// ordered site pair is one bundle (its own sendbox/receivebox pair and
// inner loop), and each source site's N-1 per-destination sendboxes sit
// behind one physical box — a MultiSendbox — feeding the site's shared
// access bottleneck. Cross-pair contention happens at that access link
// (and, in hub mode, again at the shared core), which is precisely the
// per-site rate-allocation regime §9 discusses.
//
// The mesh runs on a sharded event engine (internal/sim/shard): each
// source site is one partition — its own sim.Engine, RNG stream, and
// packet pool — owning every component of its outbound pairs (senders,
// receivers, boxes, access link, reverse path). In hub mode an extra
// partition owns the shared core link; the only cross-partition edges
// are access→core and core→site, each with RTT/4 propagation, which is
// therefore the world's conservative lookahead. Pairwise mode has no
// cross-partition edges at all. Partition identity depends only on the
// site count, never on the shard (worker) count, so any shard count
// produces byte-identical output.
//
// The mesh is also the stress harness for the in-bundle ordering fixes:
// its sendbox SFQs re-key periodically (the Linux perturbation path that
// used to split in-flight flows across buckets), and its in-path jitter
// elements run in order-preserving mode (plain jitter would fake the
// §5.2 multipath reordering signal on a single-path mesh).

// MeshOptions parameterizes one mesh run.
type MeshOptions struct {
	Seed int64
	// Sites is the site count N (≥ 2); the mesh carries N·(N-1) ordered
	// site pairs, each its own bundle.
	Sites int
	// Mode is "hub" (default: per-site access links feed one shared core
	// link) or "pairwise" (access links deliver directly; each source
	// site's access link is its pairs' only shared bottleneck).
	Mode string
	// AccessRate is the per-site access link rate in bits/s (default
	// 96e6, the dumbbell experiments' bottleneck).
	AccessRate float64
	// CoreRate is the hub-mode core rate (default Sites·AccessRate/2:
	// statistically multiplexed, so the core congests under load skew).
	CoreRate float64
	// RTT is the end-to-end propagation round trip (default 50 ms).
	RTT sim.Time
	// Bundled interposes a Bundler pair per ordered site pair; false is
	// the status-quo baseline.
	Bundled bool
	// SendboxQueuePackets is the per-bundle SFQ depth (default 1000).
	SendboxQueuePackets int
	// PerturbPeriod re-keys every sendbox SFQ this often (0 disables) —
	// the Linux perturbation path the re-key regression fix covers.
	PerturbPeriod sim.Time
	// JitterMax adds uniform in-path delay variation in [0, JitterMax)
	// after each access link (0 disables); JitterOrdered selects the
	// order-preserving element (a FIFO path element that varies latency
	// without reordering).
	JitterMax     sim.Time
	JitterOrdered bool
	// Requests is the web request count per ordered pair (default 300).
	Requests int
	// OfferedBps is the per-pair offered load. The default is 70 % of
	// the per-destination share of whatever the foreground can actually
	// get: the full access rate normally, or the guaranteed foreground
	// headroom of it when emulated background users saturate the link.
	OfferedBps float64
	// BgUsersPerSite emulates this many background users at every source
	// site as a fluid AIMD aggregate on the site's access link (package
	// fluid): the foreground bundles feel the load through slowed
	// serialization and added queueing delay, but no background packet is
	// ever simulated — per-site cost is O(1) in the user count. Zero
	// disables.
	BgUsersPerSite int
	// Sketch switches every recorder to bounded quantile sketches
	// (internal/stats), making stats memory independent of the request
	// count at ≤1 % quantile error. Forced on whenever BgUsersPerSite is
	// set — million-user meshes are exactly the runs that cannot afford
	// exact per-flow slices.
	Sketch bool
	// Horizon bounds the run (default: the FCT experiments' load-scaled
	// rule over the total request count).
	Horizon sim.Time
	// Shards is the worker-goroutine count driving the partitions. 0
	// (default, and what every experiment and config runs with)
	// auto-budgets against the sweep's active worker count so sweep
	// parallelism × shard parallelism never oversubscribes GOMAXPROCS.
	// The value never affects results, only wall-clock; an explicit one
	// (clamped to the partition count) is how the determinism tests pin
	// exactly that.
	Shards int
}

func (o *MeshOptions) fill() {
	if o.Sites == 0 {
		o.Sites = 4
	}
	if o.Mode == "" {
		o.Mode = "hub"
	}
	if o.AccessRate == 0 {
		o.AccessRate = 96e6
	}
	if o.CoreRate == 0 {
		o.CoreRate = float64(o.Sites) * o.AccessRate / 2
	}
	if o.RTT == 0 {
		o.RTT = 50 * sim.Millisecond
	}
	if o.SendboxQueuePackets == 0 {
		o.SendboxQueuePackets = 1000
	}
	if o.Requests == 0 {
		o.Requests = 300
	}
	if o.BgUsersPerSite > 0 {
		o.Sketch = true
	}
	if o.OfferedBps == 0 {
		share := o.AccessRate
		if o.BgUsersPerSite > 0 {
			// A saturating background aggregate leaves the foreground only
			// the guaranteed headroom; offering more would just run every
			// pair into the horizon.
			share *= fluid.ForegroundHeadroom
		}
		o.OfferedBps = 0.7 * share / float64(o.Sites-1)
	}
	if o.Horizon == 0 {
		o.Horizon = LoadHorizon(o.Requests * o.Sites * (o.Sites - 1))
	}
}

// SetSketch applies a user's sketch choice: "auto" (or "") leaves it to
// the defaults, which turn sketches on with background users; "true"
// forces them on; "false" keeps exact stats and is refused once
// BgUsersPerSite is set, since emulated-user runs need bounded stats.
func (o *MeshOptions) SetSketch(choice string) error {
	switch choice {
	case "", "auto":
	case "true":
		o.Sketch = true
	case "false":
		if o.BgUsersPerSite > 0 {
			return fmt.Errorf("sketch=false is incompatible with users=%d (emulated-user runs need bounded stats)", o.BgUsersPerSite)
		}
	default:
		return fmt.Errorf("sketch=%q (want auto, true, or false)", choice)
	}
	return nil
}

// Validate reports whether the options (after defaulting) describe a
// buildable mesh. NewMesh panics on exactly these conditions — direct
// callers are programmers — while the topo compiler and the registered
// experiment, whose inputs are user-supplied, surface them as errors.
func (o MeshOptions) Validate() error {
	c := o
	c.fill()
	if c.Sites < 2 || c.Sites > 64 {
		return fmt.Errorf("mesh sites %d outside [2, 64]", c.Sites)
	}
	if c.Mode != "hub" && c.Mode != "pairwise" {
		return fmt.Errorf("mesh mode %q unknown (want hub or pairwise)", c.Mode)
	}
	if c.AccessRate < netem.MinRate {
		return fmt.Errorf("mesh access rate %.0f below the %.0f bits/s minimum", c.AccessRate, netem.MinRate)
	}
	if c.CoreRate < netem.MinRate {
		return fmt.Errorf("mesh core rate %.0f below the %.0f bits/s minimum", c.CoreRate, netem.MinRate)
	}
	if o.Requests < 0 || o.OfferedBps < 0 || o.PerturbPeriod < 0 || o.JitterMax < 0 {
		return fmt.Errorf("mesh requests, load, perturb, and jitter must be non-negative")
	}
	if o.BgUsersPerSite < 0 {
		return fmt.Errorf("mesh background users must be non-negative (got %d)", o.BgUsersPerSite)
	}
	if o.Shards < 0 {
		return fmt.Errorf("mesh shards must be non-negative (0 = auto)")
	}
	return nil
}

// meshHostBase encodes a site's partition index into its fabric's
// address region: hosts (i+1)<<20, control addresses the same region
// with bit 19 set, flow IDs (i+1)<<32. The core router decodes the
// owning site back out of any destination host with meshSiteOf.
func meshHostBase(site int) (host, ctl uint32, flow uint64) {
	return uint32(site+1) << 20, uint32(site+1)<<20 | 1<<19, uint64(site+1) << 32
}

func meshSiteOf(host uint32) int { return int(host>>20) - 1 }

// meshPair is one ordered site pair: one bundle, one open-loop web
// workload, one recorder.
type meshPair struct {
	Src, Dst int
	site     *Site
	Rec      *workload.Recorder
}

// Mesh is one instantiated N-site mesh on a sharded world: one
// partition (engine + fabric + pool) per source site, plus a core
// partition in hub mode.
type Mesh struct {
	Opt MeshOptions
	// World is the sharded engine driving the partitions.
	World *shard.World
	// Fabs holds each site partition's endpoint fabric, indexed by site.
	Fabs   []*Fabric
	access []*netem.Link
	// core is the hub-mode shared link (nil in pairwise mode); it lives
	// on its own partition.
	core *netem.Link
	// Pairs lists the ordered site pairs in (src, dst) lexicographic
	// order: (0,1), (0,2), ..., (1,0), ...
	Pairs []*meshPair
	// multis holds each source site's physical box (nil when unbundled).
	multis []*bundle.MultiSendbox
	// Fluids holds each site's background-user aggregate, indexed by
	// site (empty when BgUsersPerSite is zero). Each lives on its site's
	// partition engine, so fluid ticks shard with everything else.
	Fluids []*fluid.Aggregate

	oracleRate float64
	sfqs       [][]*qdisc.SFQ // per source site
	perturbs   []clock.Ticker
}

// NewMesh builds the mesh and schedules its workloads; drive it with Run.
func NewMesh(o MeshOptions) *Mesh {
	o.fill()
	if err := o.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	m := &Mesh{Opt: o, World: shard.NewWorld()}

	// One partition per source site; partition seeds mix the experiment
	// seed with the stable site index, never the shard count.
	parts := make([]*shard.Part, o.Sites)
	for i := range parts {
		parts[i] = m.World.AddPart(shard.MixSeed(o.Seed, i))
	}

	m.oracleRate = o.AccessRate
	hub := o.Mode == "hub"
	var core *shard.Part
	inPorts := make([]*shard.Port, 0, o.Sites) // core → site, indexed by site
	if hub {
		if o.CoreRate < o.AccessRate {
			m.oracleRate = o.CoreRate
		}
		core = m.World.AddPart(shard.MixSeed(o.Seed, o.Sites))
		// The core switch: decode the owning site from the destination
		// host's partition bits and forward over that site's inbound port.
		// An unroutable packet panics — a silent drop would break pool
		// conservation.
		router := netem.ReceiverFunc(func(p *pkt.Packet) {
			site := meshSiteOf(p.Dst.Host)
			if site < 0 || site >= len(inPorts) {
				panic(fmt.Sprintf("scenario: mesh core cannot route host %#x", p.Dst.Host))
			}
			inPorts[site].Receive(p)
		})
		m.core = netem.NewLink(core.Eng, "core", o.CoreRate, 0, qdisc.NewFIFO(netem.BDPBuffer(o.CoreRate, o.RTT)), router)
	}

	// Per-site fabric, access link, and (hub) cross-partition ports.
	// Forward propagation totals RTT/2 either way: pairwise pays it all on
	// the local access link; in a hub the access and core links carry no
	// delay of their own and each crossing (access→core, core→site) pays
	// RTT/4 as its port's latency.
	accessBuf := netem.BDPBuffer(o.AccessRate, o.RTT)
	for i := 0; i < o.Sites; i++ {
		pa := parts[i]
		fab := newFabric(pa.Eng, o.RTT, o.Sites-1, o.Bundled)
		fab.Pool = pa.Pool
		hostBase, ctlBase, flowBase := meshHostBase(i)
		fab.setIDSpace(hostBase, ctlBase, flowBase)
		fab.oracleRate = m.oracleRate
		m.Fabs = append(m.Fabs, fab)

		dst, accessDelay := netem.Receiver(fab.Demux), o.RTT/2
		if hub {
			dst, accessDelay = m.World.NewPort(pa, core, m.core, o.RTT/4), 0
			inPorts = append(inPorts, m.World.NewPort(core, pa, fab.Demux, o.RTT/4))
		}
		if o.JitterMax > 0 {
			// In-path delay variation after the access link (hub: between
			// access and core). Ordered mode is the physically honest
			// choice for a FIFO element; plain mode deliberately fakes
			// reordering.
			if o.JitterOrdered {
				dst = netem.NewOrderedJitter(pa.Eng, o.JitterMax, dst)
			} else {
				dst = netem.NewJitter(pa.Eng, o.JitterMax, dst)
			}
		}
		m.access = append(m.access, netem.NewLink(pa.Eng, fmt.Sprintf("access%d", i),
			o.AccessRate, accessDelay, qdisc.NewFIFO(accessBuf), dst))
		if o.BgUsersPerSite > 0 {
			agg := fluid.Attach(pa.Eng, m.access[i], 0)
			agg.AddClass(fluid.Class{Name: fmt.Sprintf("bg%d", i),
				Users: o.BgUsersPerSite, RTT: o.RTT})
			m.Fluids = append(m.Fluids, agg)
		}
	}

	// Sites and bundles: each ordered pair (i, j) is one bundle whose
	// sendbox egress is site i's access link. A bundled source site then
	// fronts its N-1 sendboxes with one MultiSendbox — the physical box —
	// classified by the site id every destination address carries
	// (pkt.Addr.Site): the fabric is fresh, so its sites take ids 1 to
	// N-1, and classify[id] is that site's bundle. Everything here lives
	// on partition i. The pairs themselves are one slice.
	pairs := make([]meshPair, 0, o.Sites*(o.Sites-1))
	m.Pairs = make([]*meshPair, 0, cap(pairs))
	for i := 0; i < o.Sites; i++ {
		fab := m.Fabs[i]
		var boxes []*bundle.Sendbox
		var siteSFQs []*qdisc.SFQ
		var sfqSlab sim.Slab[qdisc.SFQ] // this site's, so its SFQs sit together
		if o.Bundled {
			boxes = make([]*bundle.Sendbox, 0, o.Sites-1)
			siteSFQs = make([]*qdisc.SFQ, 0, o.Sites-1)
		}
		classify := make([]int, o.Sites)
		classify[0] = -1 // site id 0 is no site
		for j := 0; j < o.Sites; j++ {
			if j == i {
				continue
			}
			var bcfg *bundle.Config
			var sfq *qdisc.SFQ
			if o.Bundled {
				sfq = sfqSlab.New()
				sfq.Init(1024, o.SendboxQueuePackets)
				bcfg = &bundle.Config{Algorithm: "copa", Scheduler: sfq}
			}
			site := fab.AddSiteAt(m.access[i], bcfg)
			if o.Bundled {
				siteSFQs = append(siteSFQs, sfq)
				classify[site.id] = len(boxes)
				boxes = append(boxes, site.SB)
			}
			pairs = append(pairs, meshPair{Src: i, Dst: j, site: site})
			m.Pairs = append(m.Pairs, &pairs[len(pairs)-1])
		}
		if o.Bundled {
			multi := bundle.NewMultiSendbox(func(p *pkt.Packet) int {
				if s := int(p.Dst.Site); s < len(classify) {
					return classify[s]
				}
				return -1 // counted as misrouted; the leak tests assert zero
			}, boxes...)
			m.multis = append(m.multis, multi)
			// Route the site's egress through the physical box: every
			// data packet must pass the classifier to reach its bundle.
			for _, pr := range m.Pairs[len(m.Pairs)-len(boxes):] {
				pr.site.egress = multi
			}
		}
		m.sfqs = append(m.sfqs, siteSFQs)
	}

	// Workloads: one open-loop web workload per ordered pair, drawing
	// arrivals from the owning partition's RNG stream.
	for _, pr := range m.Pairs {
		pr.Rec = pr.site.RunOpenLoop(Traffic{OfferedBps: o.OfferedBps, Requests: o.Requests, sketch: o.Sketch})
	}

	// Periodic SFQ re-keying (Linux's perturbation), the path the re-key
	// reordering fix covers. One ticker per source site, on that site's
	// engine, so the perturbation keys come from partition-local RNG.
	if o.Bundled && o.PerturbPeriod > 0 {
		for i, qs := range m.sfqs {
			if len(qs) == 0 {
				continue
			}
			eng, qs := m.Fabs[i].eng, qs
			m.perturbs = append(m.perturbs, eng.Tick(o.PerturbPeriod, func() {
				for _, q := range qs {
					q.SetPerturbation(eng.Rand().Uint64())
				}
			}))
		}
	}

	shards := o.Shards
	if shards == 0 {
		shards = exp.ShardBudget()
	}
	m.World.SetShards(shards)
	return m
}

// Shards reports the effective worker count driving the mesh.
func (m *Mesh) Shards() int { return m.World.Shards() }

// Run advances the mesh until every pair completes its requests (or the
// horizon passes), then stops the control planes. It returns the virtual
// stop time.
func (m *Mesh) Run() sim.Time { return m.RunUntil(m.Opt.Horizon) }

// RunUntil is Run with an explicit horizon (the topo compiler's entry
// point, whose scenario-level horizon may override the mesh default).
func (m *Mesh) RunUntil(horizon sim.Time) sim.Time {
	// Tear each pair's control loop down at the completion check where
	// its workload finishes — a bundle exists while its traffic does.
	// Early pairs would otherwise tick their 10 ms control loop for the
	// whole tail of the run; with N·(N-1) bundles that idle ticking,
	// not packet work, dominates large-mesh run time. The check runs at
	// window barriers, whose times depend only on the topology's
	// lookahead — never on the shard count — so teardown times are
	// deterministic and shard-invariant like everything else.
	done := make([]bool, len(m.Pairs))
	all := false
	stop := m.World.Run(horizon, func() bool {
		all = true
		for i, pr := range m.Pairs {
			if done[i] {
				continue
			}
			if !pr.Rec.Done() {
				all = false
				continue
			}
			done[i] = true
			pr.site.stop()
		}
		return all
	})
	if !all {
		// Stopped at the horizon unfinished: each fabric notes the
		// senders it still holds, as Fabric.RunUntilDone does.
		for _, f := range m.Fabs {
			f.noteStalls()
		}
	}
	m.stop()
	return stop
}

// stop halts every bundle's control loop and the perturbation tickers.
func (m *Mesh) stop() {
	for _, pr := range m.Pairs {
		pr.site.stop()
	}
	for _, t := range m.perturbs {
		t.Stop()
	}
	m.perturbs = nil
	for _, a := range m.Fluids {
		a.Stop()
	}
}

// Aggregate merges every pair's recorder into one site-to-site view —
// the row the mesh FCT table reports per variant.
func (m *Mesh) Aggregate() *workload.Recorder {
	agg := workload.NewRecorder(m.oracleRate, m.Opt.RTT)
	if m.Opt.Sketch {
		agg.UseSketch()
	}
	for _, pr := range m.Pairs {
		agg.Merge(pr.Rec)
	}
	return agg
}

// BgDeliveredBytes sums the background aggregates' drained fluid volume;
// BgLostBytes sums their virtual-buffer overflow. Both are zero when the
// mesh runs without emulated users.
func (m *Mesh) BgDeliveredBytes() float64 {
	v := 0.0
	for _, a := range m.Fluids {
		v += a.DeliveredBytes()
	}
	return v
}

// BgLostBytes reports the cumulative background loss volume (the AIMD
// signal) across sites.
func (m *Mesh) BgLostBytes() float64 {
	v := 0.0
	for _, a := range m.Fluids {
		v += a.LostBytes()
	}
	return v
}

// Misrouted sums the MultiSendbox misclassification counters: any
// nonzero value means a packet crossed bundles inside a physical box.
func (m *Mesh) Misrouted() int {
	total := 0
	for _, mb := range m.multis {
		total += mb.Misrouted
	}
	return total
}

// meshBg summarizes one variant's background fluid volume: how much the
// emulated users pushed through their access links and how much their
// virtual buffers dropped (all zero without BgUsersPerSite).
type meshBg struct {
	label                     string
	deliveredBytes, lostBytes float64
}

// RunMesh executes the status-quo and Bundler variants of one mesh
// configuration and returns the shared FCT-comparison rows plus each
// variant's background-traffic summary.
func RunMesh(o MeshOptions) ([]Fig9Result, []meshBg) {
	var rows []Fig9Result
	var bgs []meshBg
	for _, v := range []struct {
		label   string
		bundled bool
	}{
		{"Status Quo", false},
		{"Bundler (SFQ)", true},
	} {
		vo := o
		vo.Bundled = v.bundled
		mesh := NewMesh(vo)
		mesh.Run()
		rows = append(rows, SummarizeFCT(v.label, mesh.Aggregate()))
		bgs = append(bgs, meshBg{label: v.label,
			deliveredBytes: mesh.BgDeliveredBytes(), lostBytes: mesh.BgLostBytes()})
	}
	return rows, bgs
}

// mesh is the body of the registered mesh experiment (the table is in
// experiments.go).
func mesh(r *exp.Run) error {
	var (
		sites    = r.Int("sites")
		mode     = r.String("mode")
		requests = r.Int("requests")
		rate     = r.Float("rate")
		load     = r.Float("load")
		perturb  = simDuration(r, "perturb")
		jitter   = simDuration(r, "jitter")
		ordered  = r.Bool("jitterordered")
		users    = r.Int("users")
		sketch   = r.String("sketch")
	)
	o := MeshOptions{
		Seed:           r.Seed,
		Sites:          sites,
		Mode:           mode,
		AccessRate:     rate,
		Requests:       requests,
		OfferedBps:     load,
		PerturbPeriod:  perturb,
		JitterMax:      jitter,
		JitterOrdered:  ordered,
		BgUsersPerSite: users,
	}
	if err := o.SetSketch(sketch); err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	if err := o.Validate(); err != nil {
		return err
	}
	rows, bgs := RunMesh(o)
	hdr := fmt.Sprintf("Mesh: %d sites (%d bundles, %s), %d requests/pair",
		sites, sites*(sites-1), mode, requests)
	if users > 0 {
		hdr += fmt.Sprintf(", %d background users/site", users)
	}
	ReportHeader(r, hdr)
	WriteFCTRows(r, rows)
	AddFCTRowMetrics(&r.Result, rows)
	for i, row := range rows {
		label := strings.ReplaceAll(row.Label, " ", "_")
		r.AddMetric(label+"/completed", float64(row.Rec.Completed), "requests")
		if users > 0 {
			fmt.Fprintf(r, "%-22s background delivered %.1f MB, lost %.1f MB\n",
				bgs[i].label, bgs[i].deliveredBytes/1e6, bgs[i].lostBytes/1e6)
			r.AddMetric(label+"/bg-delivered", bgs[i].deliveredBytes, "bytes")
			r.AddMetric(label+"/bg-lost", bgs[i].lostBytes, "bytes")
		}
	}
	return nil
}
