//! Multi-path routing and rate assignment — Algorithm 3, lines 15–25.
//!
//! Given the (achieved) network-layer topology, transfers are ordered by a
//! scheduling policy (SJF or EDF, with the starvation guard) and allocated
//! greedily, **shortest paths first**: the outer loop iterates over path
//! length `l = 1, 2, …`; at each length, every transfer in policy order
//! grabs as much rate as its demand and the residual capacities allow on
//! its length-`l` paths. This "prioritizes transfers to use shorter paths
//! first" (§3.2), approximating the NP-hard optimal rate allocation.
//!
//! One pass ([`assign_rates_with`]; an annealing evaluation stops at its
//! throughput) serves every caller. Its cost follows
//! the work that exists: rounds 1 and 2 read their paths straight off the
//! support rows (a link, a common neighbor); from round 3 a transfer is
//! visited only in rounds where its destination can be `l` hops away, and
//! a path search runs only then, over bitset rows, without allocating. The
//! straightforward pass it replaced stays as [`assign_rates_reference`]
//! for the differential tests.

use crate::rows::{by_row_words, clear_bit, has_bit, row, row_mut, row_sites, row_words, set_bit};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use crate::types::{Allocation, SchedulingPolicy, Transfer};
use owan_optical::SiteId;
use std::borrow::Cow;

const EPS: f64 = 1e-9;

/// The first round whose paths need hop levels: a one-hop path is a
/// support bit, a two-hop path a common neighbor of the endpoints.
const FIRST_LEVELED_ROUND: usize = 3;

/// Tunables of the rate-assignment step.
#[derive(Debug, Clone, Copy)]
pub struct RateAssignConfig {
    /// Maximum path length in hops considered by the outer loop.
    pub max_path_hops: usize,
    /// Maximum number of length-`l` paths enumerated per transfer per
    /// round (bounds the DFS on dense topologies).
    pub max_paths_per_round: usize,
    /// Starvation guard `t̂`: transfers unscheduled for this many slots are
    /// promoted to the head of the order.
    pub starvation_threshold: u32,
}

impl Default for RateAssignConfig {
    fn default() -> Self {
        RateAssignConfig {
            max_path_hops: 8,
            max_paths_per_round: 8,
            starvation_threshold: 3,
        }
    }
}

/// The outcome of one rate-assignment pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RateOutcome {
    /// Per-transfer multi-path allocations (transfers with zero rate are
    /// omitted).
    pub allocations: Vec<Allocation>,
    /// Total allocated rate, Gbps — the "energy" of Algorithm 3.
    pub throughput_gbps: f64,
}

impl RateOutcome {
    /// The allocation for `transfer`, if any.
    pub fn allocation_for(&self, transfer: usize) -> Option<&Allocation> {
        self.allocations.iter().find(|a| a.transfer == transfer)
    }
}

/// What a rate pass reads of the slot and not of the topology: the
/// transfers, the order they are served in, and each one's demand rate.
/// An annealing run builds it once and shares it among its evaluations.
#[derive(Debug, Clone)]
pub struct RateInputs<'a> {
    transfers: &'a [Transfer],
    order: Cow<'a, [usize]>,
    demand: Vec<f64>,
}

impl<'a> RateInputs<'a> {
    /// Orders `transfers` by `policy` under the starvation guard.
    /// `rates.starvation_promotions` is counted here — once per order
    /// built, however many passes then run on it.
    pub fn new(
        transfers: &'a [Transfer],
        policy: SchedulingPolicy,
        slot_len_s: f64,
        config: &RateAssignConfig,
        telemetry: &CoreTelemetry,
    ) -> Self {
        telemetry.starvation_promotions.add(
            transfers
                .iter()
                .filter(|t| t.starved_slots >= config.starvation_threshold)
                .count() as u64,
        );
        let order = policy.order(transfers, config.starvation_threshold);
        Self::ordered(transfers, order, slot_len_s)
    }

    /// Inputs with an explicit transfer order.
    pub fn ordered(
        transfers: &'a [Transfer],
        order: impl Into<Cow<'a, [usize]>>,
        slot_len_s: f64,
    ) -> Self {
        let order = order.into();
        debug_assert_eq!(order.len(), transfers.len());
        RateInputs {
            transfers,
            order,
            demand: transfers
                .iter()
                .map(|t| t.demand_rate_gbps(slot_len_s))
                .collect(),
        }
    }
}

/// One grabbed path held in [`RateScratch`]'s log.
#[derive(Debug, Clone, Copy)]
struct Grab {
    transfer: usize,
    start: usize,
    len: usize,
    rate: f64,
}

/// Reusable buffers of the rate pass: once sized for a plant and a
/// transfer set, a pass allocates nothing; only turning its grabs into
/// [`Allocation`]s does.
///
/// The residual keeps, beside the capacities, a *support* bitset row per
/// site (bit `v` of row `u` iff `cap[u][v] > EPS`), so hop distances are a
/// BFS over site rows and the path search walks machine words. All site
/// rows are `words = ceil(n / 64)` words long.
#[derive(Debug, Clone, Default)]
pub struct RateScratch {
    n: usize,
    words: usize,
    /// `max_path_hops` of the pass being run.
    hops: usize,
    /// Residual capacities, `n × n` row-major.
    cap: Vec<f64>,
    support: Vec<u64>,
    /// Per destination, `max_path_hops + 1` cumulative masks: mask `d`
    /// holds the sites within `d` hops of it when the BFS ran.
    within: Vec<u64>,
    /// Round in which a destination's masks were computed (0 = not in
    /// this pass).
    within_round: Vec<usize>,
    /// Per destination, the last mask its BFS wrote: the BFS stops when
    /// its frontier empties, and the masks past it equal it.
    deepest: Vec<usize>,
    demand: Vec<f64>,
    /// Transfers still in play, in policy order.
    active: Vec<usize>,
    /// First round in which a transfer can have a path.
    wake: Vec<usize>,
    path: Vec<SiteId>,
    /// Unexplored next hops, one mask per search depth.
    cand: Vec<u64>,
    /// Site sequences found by one search, back to back.
    found: Vec<SiteId>,
    /// Site sequences of the pass's grabs, back to back, and one record
    /// per grab in grab order.
    grabbed: Vec<SiteId>,
    grabs: Vec<Grab>,
    /// Grabs per transfer.
    slot: Vec<usize>,
}

impl RateScratch {
    /// Loads the residual of `topology` and the pass's starting state, and
    /// sizes the path buffers for the most a pass can put in them.
    ///
    /// # Panics
    ///
    /// If the topology has more than [`MAX_SITES`](crate::rows::MAX_SITES)
    /// sites.
    fn load(
        &mut self,
        topology: &Topology,
        theta: f64,
        inputs: &RateInputs<'_>,
        hops: usize,
        limit: usize,
    ) {
        let n = topology.site_count();
        let w = row_words(n);
        (self.n, self.words, self.hops) = (n, w, hops);
        self.cap.clear();
        self.cap.resize(n * n, 0.0);
        self.support.clear();
        self.support.resize(n * w, 0);
        for u in 0..n {
            for (v, &m) in topology.row(u).iter().enumerate() {
                if m > 0 {
                    let c = m as f64 * theta;
                    self.cap[u * n + v] = c;
                    if c > EPS {
                        set_bit(&mut self.support[u * w..], v);
                    }
                }
            }
        }
        // Masks are written before they are read (`within_round` says when,
        // `deepest` how far).
        self.within.resize(n * (hops + 1) * w, 0);
        self.within_round.clear();
        self.within_round.resize(n, 0);
        self.deepest.resize(n, 0);
        self.cand.resize(hops * w, 0);
        self.path.resize(hops + 1, 0);

        let transfers = inputs.transfers;
        self.demand.clear();
        self.demand.extend_from_slice(&inputs.demand);
        self.wake.clear();
        self.wake.resize(transfers.len(), 0);
        self.slot.clear();
        self.slot.resize(transfers.len(), 0);
        self.active.clear();
        for &i in inputs.order.iter() {
            let t = &transfers[i];
            if self.demand[i] > EPS && t.src != t.dst {
                assert!(
                    t.src < n && t.dst < n,
                    "transfer {} runs between sites {} and {} of a {n}-site topology",
                    t.id,
                    t.src,
                    t.dst
                );
                self.active.push(i);
            }
        }
        // A search finds at most `limit` paths. A grab either meets its
        // transfer's demand or takes all a link had left, so there are at
        // most as many as transfers and links together.
        self.found.clear();
        self.found.reserve(limit * (hops + 1));
        let grabs =
            transfers.len() + self.support.iter().map(|w| w.count_ones()).sum::<u32>() as usize / 2;
        self.grabs.clear();
        self.grabs.reserve(grabs);
        self.grabbed.clear();
        self.grabbed.reserve(grabs * (hops + 1));
    }

    /// The row of `within` holding mask `d` of `dst`; masks past the last
    /// one its BFS wrote read that one.
    #[inline]
    fn mask_at(&self, dst: SiteId, d: usize) -> usize {
        dst * (self.hops + 1) + d.min(self.deepest[dst])
    }

    /// True if `s` was within `d` hops of `dst` when its masks were
    /// computed.
    #[inline]
    fn is_within<const W: usize>(&self, dst: SiteId, d: usize, s: SiteId) -> bool {
        has_bit(row::<W>(&self.within, self.mask_at(dst, d)), s)
    }

    /// Recomputes `dst`'s masks over the support rows as they stand: a
    /// BFS over `W`-word site rows, expanded from `dst` as the
    /// reference's is, that stops once a level adds no site — every later
    /// level would repeat it.
    fn levels<const W: usize>(&mut self, dst: SiteId) {
        let first = dst * (self.hops + 1);
        let mut reached = [0u64; W];
        set_bit(&mut reached, dst);
        *row_mut(&mut self.within, first) = reached;
        let mut frontier = reached;
        let mut d = 0;
        while d < self.hops && frontier != [0; W] {
            d += 1;
            let mut level = reached;
            for (j, &word) in frontier.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let u = j * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for (x, r) in level.iter_mut().zip(row::<W>(&self.support, u)) {
                        *x |= r;
                    }
                }
            }
            frontier = std::array::from_fn(|i| level[i] & !reached[i]);
            reached = level;
            *row_mut(&mut self.within, first + d) = reached;
        }
        self.deepest[dst] = d;
    }

    /// Fills `cand[depth]` with the sites a path of `l` hops may step to
    /// from `path[depth]`: supported, off the path, close enough to `dst`
    /// to arrive on the last hop, and not `dst` itself (a path through
    /// `dst` cannot end there).
    fn open<const W: usize>(&mut self, depth: usize, on_path: &[u64; W], dst: SiteId, l: usize) {
        let support = row::<W>(&self.support, self.path[depth]);
        let near = row::<W>(&self.within, self.mask_at(dst, l - depth - 1));
        let mut cand: [u64; W] = std::array::from_fn(|j| support[j] & !on_path[j] & near[j]);
        clear_bit(&mut cand, dst);
        *row_mut(&mut self.cand, depth) = cand;
    }

    /// Enumerates into `found` up to `limit` simple paths from `src` to
    /// `dst` with exactly `l` hops, each hop supported, in the order the
    /// reference's DFS finds them (ascending neighbor order). Returns the
    /// number of paths.
    fn search<const W: usize>(
        &mut self,
        src: SiteId,
        dst: SiteId,
        l: usize,
        limit: usize,
    ) -> usize {
        self.found.clear();
        match l {
            1 => self.one_hop::<W>(src, dst),
            2 => self.two_hop::<W>(src, dst, limit),
            _ => self.dfs::<W>(src, dst, l, limit),
        }
    }

    /// The link `src → dst`, if it has support.
    fn one_hop<const W: usize>(&mut self, src: SiteId, dst: SiteId) -> usize {
        if !has_bit(row::<W>(&self.support, src), dst) {
            return 0;
        }
        self.found.extend([src, dst]);
        1
    }

    /// The paths `src → x → dst`, `x` ascending: the sites in both
    /// endpoints' support rows. A [`Topology`] is symmetric and has no
    /// self-links, and grabs drain both directions of a link alike, so row
    /// `dst` holds exactly the sites whose last hop into `dst` has support,
    /// and neither endpoint is in both rows.
    fn two_hop<const W: usize>(&mut self, src: SiteId, dst: SiteId, limit: usize) -> usize {
        let (a, b) = (row::<W>(&self.support, src), row::<W>(&self.support, dst));
        let common: [u64; W] = std::array::from_fn(|j| a[j] & b[j]);
        let mut count = 0;
        for x in row_sites(&common) {
            self.found.extend([src, x, dst]);
            count += 1;
            if count == limit {
                break;
            }
        }
        count
    }

    /// The reference's DFS for `l ≥ 3` hops, made iterative and pruned by
    /// `dst`'s hop levels. The masks prune only subtrees that hold no
    /// completion (they are lower bounds on the hop distance, however
    /// stale), so the sequence found is a function of the residual alone.
    fn dfs<const W: usize>(&mut self, src: SiteId, dst: SiteId, l: usize, limit: usize) -> usize {
        let mut on_path = [0u64; W];
        set_bit(&mut on_path, src);
        self.path[0] = src;
        self.open(0, &on_path, dst, l);
        let (mut depth, mut count) = (0, 0);
        loop {
            let rest = row_mut::<W>(&mut self.cand, depth);
            let Some(j) = rest.iter().position(|&x| x != 0) else {
                if depth == 0 {
                    break;
                }
                clear_bit(&mut on_path, self.path[depth]);
                depth -= 1;
                continue;
            };
            let v = j * 64 + rest[j].trailing_zeros() as usize;
            rest[j] &= rest[j] - 1;
            if depth + 2 < l {
                depth += 1;
                self.path[depth] = v;
                set_bit(&mut on_path, v);
                self.open(depth, &on_path, dst, l);
            } else if has_bit(row::<W>(&self.support, v), dst) {
                // `v` is the last interior site: the path ends `v → dst`.
                self.found.extend_from_slice(&self.path[..=depth]);
                self.found.extend([v, dst]);
                count += 1;
                if count == limit {
                    break;
                }
            }
        }
        count
    }

    /// Transfer `i` grabs what it can on the `found` paths of `l` hops,
    /// in the order they were found.
    fn grab(&mut self, i: usize, l: usize, throughput: &mut f64) {
        let (n, w) = (self.n, self.words);
        for nodes in self.found.chunks_exact(l + 1) {
            if self.demand[i] <= EPS {
                break;
            }
            let min_c = nodes
                .windows(2)
                .map(|h| self.cap[h[0] * n + h[1]])
                .fold(f64::INFINITY, f64::min);
            let rate = self.demand[i].min(min_c);
            if rate > EPS {
                for h in nodes.windows(2) {
                    for (a, b) in [(h[0], h[1]), (h[1], h[0])] {
                        let c = &mut self.cap[a * n + b];
                        *c = (*c - rate).max(0.0);
                        if *c <= EPS {
                            clear_bit(&mut self.support[a * w..], b);
                        }
                    }
                }
                self.demand[i] -= rate;
                *throughput += rate;
                self.grabs.push(Grab {
                    transfer: i,
                    start: self.grabbed.len(),
                    len: l + 1,
                    rate,
                });
                self.grabbed.extend_from_slice(nodes);
                self.slot[i] += 1;
            }
        }
    }

    /// The allocations of the pass last run in this scratch, over the
    /// `transfers` it ran on: in transfer order, each transfer's paths in
    /// grab order.
    pub(crate) fn allocations(&self, transfers: &[Transfer]) -> Vec<Allocation> {
        let served = self.slot.iter().filter(|&&grabs| grabs > 0).count();
        let mut allocations = Vec::with_capacity(served);
        // A served transfer's position in the output.
        let mut position = vec![0; self.slot.len()];
        for ((&grabs, t), position) in self.slot.iter().zip(transfers).zip(&mut position) {
            if grabs > 0 {
                *position = allocations.len();
                allocations.push(Allocation {
                    transfer: t.id,
                    paths: Vec::with_capacity(grabs),
                });
            }
        }
        for g in &self.grabs {
            let nodes = self.grabbed[g.start..g.start + g.len].to_vec();
            allocations[position[g.transfer]]
                .paths
                .push((nodes, g.rate));
        }
        allocations
    }
}

/// The rate pass: assigns multi-path routes and rates to the transfers of
/// `inputs` on `topology`, whose circuits carry `theta` Gbps each, and
/// returns the total allocated rate — the energy of Algorithm 3, all an
/// annealing evaluation reads. The grabs stay in `scratch`;
/// [`assign_rates_with`] turns them into [`Allocation`]s.
///
/// In rounds 1 and 2 every transfer in play searches: its paths are a
/// support bit and a common-neighbor row, no hop levels needed. From round
/// 3 a transfer leaves the active list for good once its destination is
/// more than `max_path_hops` away (capacity only shrinks, so distances
/// only grow), and one whose destination is `d > l` hops away sleeps until
/// round `d`; hop levels to a destination are computed at most once per
/// round, when a due transfer asks. A satisfied transfer leaves in any
/// round. Paths are enumerated on the residual as it stood before the
/// transfer's own grabs of the round, then grabbed in that order.
/// Bit-identical to [`assign_rates_reference`]; debug builds assert it on
/// every pass.
pub(crate) fn rate_pass(
    topology: &Topology,
    theta: f64,
    inputs: &RateInputs<'_>,
    config: &RateAssignConfig,
    scratch: &mut RateScratch,
    telemetry: &CoreTelemetry,
) -> f64 {
    telemetry.rates_full_evals.incr();
    let s = scratch;
    s.load(
        topology,
        theta,
        inputs,
        config.max_path_hops,
        config.max_paths_per_round,
    );
    let (throughput, examined, bfs) = by_row_words!(s.words, |W| rounds::<W>(s, inputs, config));
    telemetry.paths_examined.add(examined as u64);
    telemetry.hop_levels.add(bfs);
    telemetry.allocations_made.add(s.grabs.len() as u64);

    debug_assert_eq!(
        RateOutcome {
            allocations: s.allocations(inputs.transfers),
            throughput_gbps: throughput,
        },
        assign_rates_reference(topology, theta, inputs, config),
        "the rate kernel must equal the reference pass"
    );
    throughput
}

/// The rounds of [`rate_pass`] on a loaded scratch, its site rows `W`
/// words wide: the throughput, the paths examined and the hop-level BFS
/// passes run.
fn rounds<const W: usize>(
    s: &mut RateScratch,
    inputs: &RateInputs<'_>,
    config: &RateAssignConfig,
) -> (f64, usize, u64) {
    let hops = config.max_path_hops;
    let limit = config.max_paths_per_round;
    let mut throughput = 0.0;
    let mut examined = 0;
    let mut bfs = 0;

    for l in 1..=hops {
        if s.active.is_empty() || limit == 0 {
            break;
        }
        let mut kept = 0;
        for k in 0..s.active.len() {
            let i = s.active[k];
            let t = &inputs.transfers[i];
            if s.wake[i] <= l {
                // Only an order that names a transfer twice gets here
                // with the demand already met.
                if s.demand[i] <= EPS {
                    continue;
                }
                if l >= FIRST_LEVELED_ROUND {
                    if s.within_round[t.dst] != l {
                        s.levels::<W>(t.dst);
                        s.within_round[t.dst] = l;
                        bfs += 1;
                    }
                    let Some(d) = (l..=hops).find(|&d| s.is_within::<W>(t.dst, d, t.src)) else {
                        continue;
                    };
                    s.wake[i] = d;
                }
                // Due: in rounds 1 and 2 always, later when `dst` is `l`
                // hops away.
                if s.wake[i] <= l {
                    examined += s.search::<W>(t.src, t.dst, l, limit);
                    s.grab(i, l, &mut throughput);
                    if s.demand[i] <= EPS {
                        continue;
                    }
                }
            }
            s.active[kept] = i;
            kept += 1;
        }
        s.active.truncate(kept);
    }
    (throughput, examined, bfs)
}

/// The rate pass plus the allocations it made: the pass every caller that
/// wants a plan, not only a score, runs. `scratch` holds the pass's
/// buffers; once sized for a plant and a transfer set, only the output is
/// allocated.
pub fn assign_rates_with(
    topology: &Topology,
    theta: f64,
    inputs: &RateInputs<'_>,
    config: &RateAssignConfig,
    scratch: &mut RateScratch,
    telemetry: &CoreTelemetry,
) -> RateOutcome {
    let throughput_gbps = rate_pass(topology, theta, inputs, config, scratch, telemetry);
    RateOutcome {
        allocations: scratch.allocations(inputs.transfers),
        throughput_gbps,
    }
}

/// Assigns multi-path routes and rates to `transfers` on `topology`.
///
/// `theta` is the per-circuit capacity (Gbps); `slot_len_s` converts each
/// transfer's remaining volume into its per-slot demand rate.
pub fn assign_rates(
    topology: &Topology,
    theta: f64,
    transfers: &[Transfer],
    policy: SchedulingPolicy,
    slot_len_s: f64,
    config: &RateAssignConfig,
) -> RateOutcome {
    let telemetry = CoreTelemetry::disabled();
    let inputs = RateInputs::new(transfers, policy, slot_len_s, config, &telemetry);
    let mut scratch = RateScratch::default();
    assign_rates_with(topology, theta, &inputs, config, &mut scratch, &telemetry)
}

/// Like [`assign_rates`] but with an explicit transfer order — used by the
/// coflow extension ([`crate::groups::sebf_order`]) and by experiments that
/// want custom scheduling disciplines.
pub fn assign_rates_ordered(
    topology: &Topology,
    theta: f64,
    transfers: &[Transfer],
    order: &[usize],
    slot_len_s: f64,
    config: &RateAssignConfig,
) -> RateOutcome {
    let inputs = RateInputs::ordered(transfers, order, slot_len_s);
    let mut scratch = RateScratch::default();
    assign_rates_with(
        topology,
        theta,
        &inputs,
        config,
        &mut scratch,
        &CoreTelemetry::disabled(),
    )
}

/// Residual link capacities over an achieved topology — the reference
/// pass's, kept as it was.
struct Residual {
    n: usize,
    cap: Vec<f64>,
}

impl Residual {
    fn new(topology: &Topology, theta: f64) -> Self {
        let n = topology.site_count();
        let mut cap = vec![0.0; n * n];
        for (u, v, m) in topology.links() {
            cap[u * n + v] = m as f64 * theta;
            cap[v * n + u] = m as f64 * theta;
        }
        Residual { n, cap }
    }

    #[inline]
    fn get(&self, u: SiteId, v: SiteId) -> f64 {
        self.cap[u * self.n + v]
    }

    fn consume(&mut self, path: &[SiteId], rate: f64) {
        for w in path.windows(2) {
            let c = &mut self.cap[w[0] * self.n + w[1]];
            *c = (*c - rate).max(0.0);
            let c2 = &mut self.cap[w[1] * self.n + w[0]];
            *c2 = (*c2 - rate).max(0.0);
        }
    }

    fn any_free(&self) -> bool {
        self.cap.iter().any(|&c| c > EPS)
    }

    /// Hop distances to `dst` over links with positive residual (BFS).
    fn hop_distances_to(&self, dst: SiteId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[dst] = 0;
        let mut queue = std::collections::VecDeque::from([dst]);
        while let Some(u) = queue.pop_front() {
            for v in 0..self.n {
                if dist[v] == usize::MAX && self.get(u, v) > EPS {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Enumerates up to `limit` simple paths from `src` to `dst` with
    /// exactly `len` hops, each hop having positive residual. Deterministic
    /// DFS in ascending neighbor order, pruned by hop distance to `dst`
    /// (`dist_to_dst` as computed by [`Residual::hop_distances_to`]; many
    /// transfers share a destination, so callers cache it per round).
    fn paths_of_length(
        &self,
        src: SiteId,
        dst: SiteId,
        len: usize,
        limit: usize,
        dist_to_dst: &[usize],
    ) -> Vec<Vec<SiteId>> {
        if dist_to_dst[src] == usize::MAX || dist_to_dst[src] > len {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut stack = vec![src];
        let mut on_path = vec![false; self.n];
        on_path[src] = true;
        self.dfs(
            dst,
            len,
            limit,
            dist_to_dst,
            &mut stack,
            &mut on_path,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        dst: SiteId,
        len: usize,
        limit: usize,
        dist_to_dst: &[usize],
        stack: &mut Vec<SiteId>,
        on_path: &mut Vec<bool>,
        out: &mut Vec<Vec<SiteId>>,
    ) {
        if out.len() >= limit {
            return;
        }
        let cur = *stack.last().expect("stack non-empty");
        let remaining = len + 1 - stack.len();
        if remaining == 0 {
            if cur == dst {
                out.push(stack.clone());
            }
            return;
        }
        for v in 0..self.n {
            if !on_path[v]
                && self.get(cur, v) > EPS
                && dist_to_dst[v] != usize::MAX
                && dist_to_dst[v] < remaining
            {
                stack.push(v);
                on_path[v] = true;
                self.dfs(dst, len, limit, dist_to_dst, stack, on_path, out);
                stack.pop();
                on_path[v] = false;
            }
        }
    }
}

/// The straightforward pass [`assign_rates_with`] must equal bit for bit:
/// every transfer with demand is visited in every round, hop distances
/// come from a queue BFS per destination and round, and the path search is
/// a recursive DFS. The differential tests and the kernel's debug
/// assertion compare against it; nothing else calls it.
#[doc(hidden)]
pub fn assign_rates_reference(
    topology: &Topology,
    theta: f64,
    inputs: &RateInputs<'_>,
    config: &RateAssignConfig,
) -> RateOutcome {
    let transfers = inputs.transfers;
    let mut residual = Residual::new(topology, theta);
    let mut demand = inputs.demand.clone();
    let mut allocations: Vec<Allocation> = transfers
        .iter()
        .map(|t| Allocation {
            transfer: t.id,
            paths: Vec::new(),
        })
        .collect();
    let mut throughput = 0.0;

    'outer: for l in 1..=config.max_path_hops {
        let any_demand = demand.iter().any(|&d| d > EPS);
        if !any_demand || !residual.any_free() {
            break 'outer;
        }
        // Hop distances to each destination, computed lazily once per
        // round — transfers sharing a destination reuse them. Consuming
        // capacity only ever *increases* true distances, so a stale cache
        // can only over-admit the DFS, never hide a valid path; feasibility
        // is still enforced edge-by-edge inside the DFS.
        let mut dist_cache: std::collections::HashMap<SiteId, Vec<usize>> =
            std::collections::HashMap::new();
        for &i in inputs.order.iter() {
            if demand[i] <= EPS {
                continue;
            }
            let t = &transfers[i];
            if t.src == t.dst {
                demand[i] = 0.0;
                continue;
            }
            let dist_to_dst = dist_cache
                .entry(t.dst)
                .or_insert_with(|| residual.hop_distances_to(t.dst));
            let paths =
                residual.paths_of_length(t.src, t.dst, l, config.max_paths_per_round, dist_to_dst);
            for path in paths {
                if demand[i] <= EPS {
                    break;
                }
                let min_c = path
                    .windows(2)
                    .map(|w| residual.get(w[0], w[1]))
                    .fold(f64::INFINITY, f64::min);
                let rate = demand[i].min(min_c);
                if rate > EPS {
                    residual.consume(&path, rate);
                    demand[i] -= rate;
                    throughput += rate;
                    allocations[i].paths.push((path, rate));
                }
            }
        }
    }

    allocations.retain(|a| !a.paths.is_empty());
    RateOutcome {
        allocations,
        throughput_gbps: throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(id: usize, src: usize, dst: usize, gbits: f64) -> Transfer {
        Transfer {
            id,
            src,
            dst,
            volume_gbits: gbits,
            remaining_gbits: gbits,
            arrival_s: 0.0,
            deadline_s: None,
            starved_slots: 0,
        }
    }

    /// The motivating example of Figure 3: four routers, unit links of
    /// capacity 10.
    fn square() -> Topology {
        let mut t = Topology::empty(4);
        t.add_links(0, 1, 1); // R0-R1
        t.add_links(0, 2, 1); // R0-R2
        t.add_links(2, 3, 1); // R2-R3
        t.add_links(1, 3, 1); // R1-R3
        t
    }

    #[test]
    fn single_transfer_uses_both_paths() {
        // F0: R0->R1, demand 20 Gbps; direct path carries 10, the two-hop
        // path R0-R2-R3-R1 carries the rest.
        let topo = square();
        let ts = vec![transfer(0, 0, 1, 20.0)];
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert!((out.throughput_gbps - 20.0).abs() < 1e-6);
        let a = out.allocation_for(0).unwrap();
        assert_eq!(a.paths.len(), 2);
        assert_eq!(a.paths[0].0, vec![0, 1], "direct path first");
        assert!((a.paths[0].1 - 10.0).abs() < 1e-6);
        assert_eq!(a.paths[1].0, vec![0, 2, 3, 1]);
    }

    #[test]
    fn figure3_plan_b_order() {
        // Two transfers R0->R1 (10) and R2->R3 (10) on the square with slot
        // length 1: both can be fully served (Plan A of Fig 3), total 20.
        let topo = square();
        let ts = vec![transfer(0, 0, 1, 10.0), transfer(1, 2, 3, 10.0)];
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert!((out.throughput_gbps - 20.0).abs() < 1e-6);
    }

    #[test]
    fn sjf_gives_small_transfer_priority() {
        // One shared link of capacity 10, transfers of 8 and 4 Gb with slot
        // 1 s: SJF serves the 4 fully, the 8 gets the remaining 6.
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 1);
        let ts = vec![transfer(0, 0, 1, 8.0), transfer(1, 0, 1, 4.0)];
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert!((out.allocation_for(1).unwrap().total_rate() - 4.0).abs() < 1e-6);
        assert!((out.allocation_for(0).unwrap().total_rate() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn edf_prioritizes_deadline() {
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 1);
        let mut t0 = transfer(0, 0, 1, 8.0);
        t0.deadline_s = Some(1_000.0);
        let mut t1 = transfer(1, 0, 1, 8.0);
        t1.deadline_s = Some(100.0);
        let out = assign_rates(
            &topo,
            10.0,
            &[t0, t1],
            SchedulingPolicy::EarliestDeadlineFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert!((out.allocation_for(1).unwrap().total_rate() - 8.0).abs() < 1e-6);
        assert!((out.allocation_for(0).unwrap().total_rate() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rates_never_exceed_capacity() {
        let topo = square();
        let ts: Vec<Transfer> = (0..6)
            .map(|i| transfer(i, i % 4, (i + 1) % 4, 100.0))
            .collect();
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        // Recompute per-link loads.
        let n = 4;
        let mut load = vec![0.0; n * n];
        for a in &out.allocations {
            for (path, r) in &a.paths {
                for w in path.windows(2) {
                    load[w[0] * n + w[1]] += r;
                    load[w[1] * n + w[0]] += r;
                }
            }
        }
        for u in 0..n {
            for v in 0..n {
                let cap = topo.multiplicity(u, v) as f64 * 10.0;
                assert!(
                    load[u * n + v] <= cap + 1e-6,
                    "({u},{v}): {} > {cap}",
                    load[u * n + v]
                );
            }
        }
    }

    #[test]
    fn demand_capped_by_remaining_volume() {
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 10); // 100 Gbps available
        let ts = vec![transfer(0, 0, 1, 30.0)]; // only 30 Gb remain
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert!((out.throughput_gbps - 30.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_transfer_gets_nothing() {
        let mut topo = Topology::empty(3);
        topo.add_links(0, 1, 1);
        let ts = vec![transfer(0, 0, 2, 10.0)];
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert_eq!(out.throughput_gbps, 0.0);
        assert!(out.allocations.is_empty());
    }

    #[test]
    fn parallel_links_aggregate_capacity() {
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 3);
        let ts = vec![transfer(0, 0, 1, 25.0)];
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert!((out.throughput_gbps - 25.0).abs() < 1e-6);
    }

    #[test]
    fn empty_transfer_list() {
        let topo = square();
        let out = assign_rates(
            &topo,
            10.0,
            &[],
            SchedulingPolicy::ShortestJobFirst,
            1.0,
            &RateAssignConfig::default(),
        );
        assert_eq!(out.throughput_gbps, 0.0);
    }

    #[test]
    fn slot_length_scales_demand() {
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 1);
        let ts = vec![transfer(0, 0, 1, 100.0)];
        // slot 100 s: demand rate = 1 Gbps, far below the 10 Gbps link.
        let out = assign_rates(
            &topo,
            10.0,
            &ts,
            SchedulingPolicy::ShortestJobFirst,
            100.0,
            &RateAssignConfig::default(),
        );
        assert!((out.throughput_gbps - 1.0).abs() < 1e-6);
    }
}
